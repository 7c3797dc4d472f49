"""Feature measures of the paper (Formulas 2-7) over content lines and blocks."""

from repro.features.blocks import Block, partition_block
from repro.features.cohesion import (
    best_partition,
    inter_record_distance,
    record_diversity,
    section_cohesion,
)
from repro.features.config import DEFAULT_CONFIG, FeatureConfig
from repro.features.line_distance import line_distance, position_distance, text_attr_distance
from repro.features.record_distance import (
    block_position_distance,
    block_shape_distance,
    block_text_attr_distance,
    block_type_distance,
    record_distance,
    tag_forest_distance,
)

__all__ = [
    "Block",
    "DEFAULT_CONFIG",
    "FeatureConfig",
    "best_partition",
    "block_position_distance",
    "block_shape_distance",
    "block_text_attr_distance",
    "block_type_distance",
    "inter_record_distance",
    "line_distance",
    "partition_block",
    "position_distance",
    "record_distance",
    "record_diversity",
    "section_cohesion",
    "tag_forest_distance",
    "text_attr_distance",
]
