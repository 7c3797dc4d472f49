"""Block/record-level distances: Dtf, Dbt, Dbs, Dbp, Dbta and Drec (F4).

The per-component functions and :func:`record_distance_reference` are
the *reference* kernels — the paper's formulas computed directly over
the block features.  :func:`record_distance` is the one production
path: it compares the compact interned fingerprints of
:mod:`repro.perf` — bitmask Dtal, memoized tag-forest distance,
identity-checked feature tuples — and memoizes the weighted sum in the
process-wide ``RECORD_MEMO``.  It is score-identical to the reference
(property-tested in ``tests/test_perf_kernels.py``, benchmarked in
``benchmarks/bench_kernels.py``); the kernel memos are the only memo
layer, so callers simply call it.
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms.string_edit import normalized_edit_distance
from repro.features.blocks import Block
from repro.features.config import DEFAULT_CONFIG, FeatureConfig
from repro.features.line_distance import position_distance, text_attr_distance
from repro.perf.fingerprints import block_fingerprint, masked_attr_distance
from repro.perf.kernels import RECORD_MEMO, memo_forest_distance
from repro.render.linetypes import type_distance


def block_type_distance(block1: Block, block2: Block) -> float:
    """Dbt: normalized edit distance between the blocks' type-code strings.

    Substitution cost is the line type distance, so e.g. LINK vs LINK_TEXT
    lines count as near-matches.  Normalized to [0, 1] by the longer block.
    """
    return normalized_edit_distance(
        block1.type_codes, block2.type_codes, substitution_cost=type_distance
    )


def block_shape_distance(
    block1: Block, block2: Block, config: FeatureConfig = DEFAULT_CONFIG
) -> float:
    """Dbs: normalized edit distance between the blocks' left contours.

    Shapes are relative offsets from each block's own first line, and the
    substitution cost of two offsets is their (bounded) position distance,
    giving a value in [0, 1].
    """

    def offset_cost(a: int, b: int) -> float:
        return position_distance(a, b, config)

    return normalized_edit_distance(block1.shape, block2.shape, substitution_cost=offset_cost)


def block_position_distance(
    block1: Block, block2: Block, config: FeatureConfig = DEFAULT_CONFIG
) -> float:
    """Dbp: position distance between the blocks' own position codes."""
    return position_distance(block1.position, block2.position, config)


def block_text_attr_distance(block1: Block, block2: Block) -> float:
    """Dbta: normalized edit distance between the blocks' attribute lists.

    Substitution cost is Dtal (Formula 2), per §4.2.
    """
    return normalized_edit_distance(
        block1.text_attrs, block2.text_attrs, substitution_cost=text_attr_distance
    )


def tag_forest_distance(block1: Block, block2: Block) -> float:
    """Dtf: normalized edit distance between the blocks' tag forests.

    The reference kernel: builds both forests afresh as
    :class:`~repro.algorithms.tree_edit.OrderedTree` lists and runs the
    unmemoized callback program over them.
    """
    from repro.algorithms.tree_edit import forest_distance, tree_from_element

    return forest_distance(
        [tree_from_element(element) for element in block1.span_elements()],
        [tree_from_element(element) for element in block2.span_elements()],
    )


def record_distance(
    block1: Block,
    block2: Block,
    config: FeatureConfig = DEFAULT_CONFIG,
) -> float:
    """Drec (Formula 4): weighted sum of the five block distances."""
    if block1 is block2 or (
        block1.page is block2.page
        and block1.start == block2.start
        and block1.end == block2.end
    ):
        # The same line span: every component distance is exactly 0.
        return 0.0
    fp1 = block_fingerprint(block1)
    fp2 = block_fingerprint(block2)
    if fp1 == fp2:
        # Identical features (including position): all five terms are 0.
        return 0.0
    # Drec is a pure function of the two fingerprints and the config, so
    # the weighted sum is memoized process-wide: the serving loop's
    # health checks meet the same record-style pairs on page after page.
    # The pair is canonicalized by the fingerprints' value hashes, which
    # is deterministic for equal fingerprints wherever they were built.
    if hash(fp1) <= hash(fp2):
        memo_key = (config, fp1, fp2)
    else:
        memo_key = (config, fp2, fp1)
    memoized = RECORD_MEMO.get(memo_key)
    if memoized is not None:
        return memoized
    v1, v2, v3, v4, v5 = config.record_weights

    dtf = memo_forest_distance(fp1.forest_sig, fp2.forest_sig)

    if fp1.type_codes is fp2.type_codes:
        dbt = 0.0
    else:
        dbt = normalized_edit_distance(
            fp1.type_codes, fp2.type_codes, substitution_cost=type_distance
        )

    if fp1.shape is fp2.shape:
        dbs = 0.0
    else:

        def offset_cost(a: int, b: int) -> float:
            return position_distance(a, b, config)

        dbs = normalized_edit_distance(
            fp1.shape, fp2.shape, substitution_cost=offset_cost
        )

    dbp = position_distance(fp1.position, fp2.position, config)

    if fp1.attr_masks is fp2.attr_masks:
        dbta = 0.0
    else:
        dbta = normalized_edit_distance(
            fp1.attr_masks, fp2.attr_masks, substitution_cost=masked_attr_distance
        )

    result = v1 * dtf + v2 * dbt + v3 * dbs + v4 * dbp + v5 * dbta
    RECORD_MEMO.store(memo_key, result)
    return result


def record_distance_reference(
    block1: Block,
    block2: Block,
    config: FeatureConfig = DEFAULT_CONFIG,
) -> float:
    """Formula 4 over the naive kernels: :func:`record_distance`'s oracle."""
    v1, v2, v3, v4, v5 = config.record_weights
    return (
        v1 * tag_forest_distance(block1, block2)
        + v2 * block_type_distance(block1, block2)
        + v3 * block_shape_distance(block1, block2, config)
        + v4 * block_position_distance(block1, block2, config)
        + v5 * block_text_attr_distance(block1, block2)
    )


def average_distance(
    block: Block,
    group: Sequence[Block],
    config: FeatureConfig = DEFAULT_CONFIG,
) -> float:
    """Davgrs(block, group): mean Drec from ``block`` to each member."""
    if not group:
        return 0.0
    return sum(record_distance(block, member, config) for member in group) / len(group)
