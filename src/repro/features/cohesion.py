"""Record diversity, inter-record distance and section cohesion (F5-F7).

The paper's key observation (§4.4): records within a section tend to be
similar to *each other*, while the lines within one record tend to be
dissimilar to each other.  A good partition of a section's content lines
into records therefore has high average record diversity and low
inter-record distance; :func:`section_cohesion` (Formula 7) scores a
candidate partition accordingly, and record mining picks the partition
with the highest cohesion.

Drec values come from :func:`~repro.features.record_distance.record_distance`,
whose process-wide ``RECORD_MEMO`` serves every repeated pair; Div is a
short pass over one record's lines and is computed directly.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Sequence

from repro.features.blocks import Block
from repro.features.config import DEFAULT_CONFIG, FeatureConfig
from repro.features.line_distance import line_distance
from repro.features.record_distance import record_distance


def record_diversity(
    record: Block,
    config: FeatureConfig = DEFAULT_CONFIG,
) -> float:
    """Div(r) (Formula 6): mean pairwise line distance within a record.

    A single-line record has diversity 0.
    """
    lines = record.lines
    if len(lines) < 2:
        return 0.0
    total = sum(line_distance(l1, l2, config) for l1, l2 in combinations(lines, 2))
    pairs = len(lines) * (len(lines) - 1) // 2
    return total / pairs


def inter_record_distance(
    records: Sequence[Block],
    config: FeatureConfig = DEFAULT_CONFIG,
) -> float:
    """Dinr(S) (Formula 5): mean pairwise record distance in a section.

    A section with fewer than two records has inter-record distance 0.
    """
    if len(records) < 2:
        return 0.0
    total = sum(
        record_distance(r1, r2, config) for r1, r2 in combinations(records, 2)
    )
    pairs = len(records) * (len(records) - 1) // 2
    return total / pairs


def section_cohesion(
    records: Sequence[Block],
    config: FeatureConfig = DEFAULT_CONFIG,
) -> float:
    """Cohs(S) (Formula 7): (mean Div) / (1 + Dinr).

    Higher is better: internally heterogeneous records that resemble each
    other score highest.
    """
    if not records:
        return 0.0
    mean_diversity = sum(record_diversity(r, config) for r in records) / len(records)
    return mean_diversity / (1.0 + inter_record_distance(records, config))


def best_partition(
    partitions: Sequence[List[Block]],
    config: FeatureConfig = DEFAULT_CONFIG,
) -> List[Block]:
    """The candidate partition with the highest section cohesion.

    Ties are broken toward the partition with *more* records (finer), then
    toward the earlier candidate — Formula 7 ties occur when every line is
    visually identical (e.g. a section of bare link lines), where the finer
    reading "one record per repeating unit" is the correct one.
    """
    if not partitions:
        raise ValueError("no candidate partitions")
    scored = [
        (section_cohesion(p, config), len(p), -index, p)
        for index, p in enumerate(partitions)
    ]
    scored.sort(key=lambda item: (item[0], item[1], item[2]))
    return scored[-1][3]
