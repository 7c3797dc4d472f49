"""Record mining from dynamic sections (paper §5.4).

A DS is a run of content lines with no identified records.  Candidate
*tag-forest separators* — following [29] — are derived from the top-level
children of the DS's minimum subtree; each candidate induces a partition
of the DS's lines into records, the degenerate whole-DS-as-one-record
partition is always included, and the partition with the highest *section
cohesion* (Formula 7) wins.

Because the single-record partition competes on equal terms, the miner
can find the only record of a one-record DS — the property the paper
highlights over prior work that needs two or more records.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.features.blocks import Block, partition_block
from repro.features.cohesion import best_partition
from repro.features.config import DEFAULT_CONFIG, FeatureConfig
from repro.htmlmod.dom import Element
from repro.obs import NULL_OBSERVER, ObserverLike
from repro.render.linetypes import LineType

#: Line types that can plausibly open a record (shared with MRE).
_START_TYPES = frozenset(
    {LineType.LINK, LineType.LINK_TEXT, LineType.IMAGE_TEXT}
)


def _children_line_ranges(
    block: Block,
) -> List[Tuple[Element, int, int]]:
    """Top-level children of the block's minimum subtree with line ranges.

    Only children rendering at least one line inside the block are
    reported; ranges are clipped to the block.
    """
    subtree = block.page.span_subtree(block.start, block.end)
    if subtree is None:
        return []
    out: List[Tuple[Element, int, int]] = []
    for child in subtree.children:
        if not isinstance(child, Element):
            continue
        found = block.page.line_range_of_element(child)
        if found is None:
            continue
        first, last = found
        if last < block.start or first > block.end:
            continue
        out.append((child, max(first, block.start), min(last, block.end)))
    return out


def candidate_partitions(
    block: Block, config: FeatureConfig = DEFAULT_CONFIG
) -> List[List[Block]]:
    """All candidate record partitions of a DS block.

    Candidates, deduplicated by their boundary sets:

    - the whole block as a single record;
    - one record per top-level child of the minimum subtree;
    - for each distinct child tag ``t``: a new record starts at each
      child tagged ``t`` (the "separator" reading — e.g. every ``<dt>``
      in a ``<dl>``, every ``<a>`` in ``<br>``-separated flat content).
    """
    children = _children_line_ranges(block)

    candidates: List[List[Block]] = []
    seen: Set[Tuple[int, ...]] = set()

    def add(boundaries: Sequence[int]) -> None:
        usable = sorted({b for b in boundaries if block.start < b <= block.end})
        key = tuple(usable)
        if key in seen:
            return
        seen.add(key)
        candidates.append(partition_block(block, usable))

    add([])  # whole block = one record

    if children:
        per_child = [first for _, first, _ in children]
        add(per_child)

        tags = {child.tag for child, _, _ in children}
        for tag in sorted(tags):
            starts = [first for child, first, _ in children if child.tag == tag]
            if starts:
                add(starts)

    # Title-anchored partition: records open at title-ish lines at the
    # leftmost position of the DS (needed for flat markup where records
    # have no wrapper element at all).
    add(_title_start_lines(block))

    return candidates


def _title_start_lines(block: Block) -> List[int]:
    title_lines = [line for line in block.lines if line.line_type in _START_TYPES]
    if not title_lines:
        return []
    min_x = min(line.position for line in title_lines)
    return [line.number for line in title_lines if line.position == min_x]


def _uniform_starts(records: Sequence[Block]) -> bool:
    """Separator evidence: every record opens with the same kind of line.

    True when all records' first lines are title-ish, share one position
    code, and have pairwise-compatible tag paths — overwhelming evidence
    of a repeating record structure, even when the records' *bodies* vary
    (optional snippets make body-based cohesion unreliable).
    """
    firsts = [record.lines[0] for record in records]
    if any(line.line_type not in _START_TYPES for line in firsts):
        return False
    if len({line.position for line in firsts}) != 1:
        return False
    base = firsts[0].tag_path
    return all(line.tag_path.compatible(base) for line in firsts[1:])


def mine_records(
    block: Block,
    config: FeatureConfig = DEFAULT_CONFIG,
    obs: ObserverLike = NULL_OBSERVER,
) -> List[Block]:
    """Partition a DS block into records (§5.4).

    Multi-record partitions backed by separator evidence (see
    :func:`_uniform_starts`) are preferred; among those — and otherwise
    among all candidates — the partition with the highest section
    cohesion (Formula 7) wins.  Sections whose records share no common
    opening line (and true single-record DSs) fall through to the pure
    cohesion criterion, which then correctly favours the whole-DS record.
    """
    candidates = candidate_partitions(block, config)
    obs.count("mine.calls")
    obs.count("mine.candidate_partitions", len(candidates))
    evidenced = [p for p in candidates if len(p) >= 2 and _has_start_evidence(p)]
    if evidenced:
        obs.count("mine.evidenced")
        return best_partition(evidenced, config)
    return best_partition(candidates, config)


def mine_block(
    block: Block,
    strategy: str,
    config: FeatureConfig = DEFAULT_CONFIG,
    obs: ObserverLike = NULL_OBSERVER,
) -> List[Block]:
    """Mining-strategy dispatch used by the pipeline's mine stage.

    ``strategy`` is :attr:`repro.core.mse_config.MSEConfig.mining_strategy`:
    ``"cohesion"`` runs the paper's Formula-7 miner (:func:`mine_records`);
    ``"per-child"`` is the ablation heuristic that takes the finest tag
    partition with no cohesion scoring.  A degenerate block that yields no
    candidate partitions falls back to the whole block as one record
    rather than crashing on ``max()`` of an empty sequence.
    """
    if strategy == "per-child":
        candidates = candidate_partitions(block, config)
        if not candidates:
            return [block]
        return max(candidates, key=len)
    return mine_records(block, config, obs=obs)


def _has_start_evidence(partition: Sequence[Block]) -> bool:
    """Uniform starts, allowing the first record to be an outlier.

    A DS may open with a non-record prefix (a divider image, a stray
    label) that mining keeps as a leading piece; the remaining records
    still constitute separator evidence.
    """
    if _uniform_starts(partition):
        return True
    return len(partition) >= 3 and _uniform_starts(partition[1:])


def separator_tag_of(records: Sequence[Block]) -> Optional[str]:
    """The child tag at which the records of a section start, if uniform.

    Used by wrapper construction (§5.7): maps each record's first line
    back to the top-level child of the section subtree containing it; if
    all records start at children of one tag, that tag is the separator.
    """
    if not records:
        return None
    page = records[0].page
    start = records[0].start
    end = records[-1].end
    subtree = page.span_subtree(start, end)
    if subtree is None:
        return None

    child_of_line: Dict[int, Element] = {}
    for child in subtree.children:
        if not isinstance(child, Element):
            continue
        found = page.line_range_of_element(child)
        if found is None:
            continue
        for number in range(found[0], found[1] + 1):
            child_of_line.setdefault(number, child)

    tags: Set[str] = set()
    for record in records:
        child = child_of_line.get(record.start)
        if child is None:
            return None
        tags.add(child.tag)
    if len(tags) == 1:
        return tags.pop()
    return None
