"""Section-record granularity resolution (paper §5.5).

Two error families survive refinement:

- **oversized records** — consecutive *sections* of identical format were
  glued into one MR as its "records", or several records were merged into
  one big record;
- **splitting records** — one large record was split into several small
  records, or each large record of a section was promoted to a section of
  its own.

The oversized check re-mines each large record; whether the mined pieces
imply "those were sections" is decided by the paper's boundary-structure
test: if the first mined piece of R2 (or the last of R1) is structurally
special — ``Davgrs > W * Dinr`` against the other record's pieces — a
separating structure exists and R1/R2 are sections.

The splitting check tries coarser partitions (pairs, triples, ... of
consecutive records) and keeps the partition with the highest cohesion;
then runs the sibling test: consecutive one-record sections whose
subtrees are siblings under one parent are rebuilt into a single section
with one record each.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.mining import _uniform_starts, mine_records
from repro.core.model import SectionInstance
from repro.features.blocks import Block
from repro.features.cohesion import inter_record_distance, section_cohesion
from repro.features.config import DEFAULT_CONFIG, FeatureConfig
from repro.features.record_distance import average_distance
from repro.htmlmod.dom import Element
from repro.obs import NULL_OBSERVER, ObserverLike
from repro.render.lines import RenderedPage


def _boundary_is_special(
    smalls1: List[Block],
    smalls2: List[Block],
    config: FeatureConfig,
) -> bool:
    """The §5.5 test on the pieces of two consecutive oversized records.

    True when the piece adjacent to the R1/R2 boundary is structurally
    unlike the pieces on the other side — i.e. a separating structure
    (an SBM-like row, a divider) exists, so R1 and R2 are sections.
    """
    if not smalls1 or not smalls2:
        return False
    w = config.refine_w
    dinr1 = max(inter_record_distance(smalls1, config), config.dinr_floor)
    dinr2 = max(inter_record_distance(smalls2, config), config.dinr_floor)
    first_of_r2 = smalls2[0]
    last_of_r1 = smalls1[-1]
    return (
        average_distance(first_of_r2, smalls1, config) > w * dinr1
        or average_distance(last_of_r1, smalls2, config) > w * dinr2
    )


def _fix_oversized(
    section: SectionInstance,
    config: FeatureConfig,
    obs: ObserverLike = NULL_OBSERVER,
) -> List[SectionInstance]:
    """Oversized-record handling; may split one section into several."""
    records = section.records
    if not records:
        return [section]

    largest = max(records, key=len)
    if len(largest) <= 1:
        return [section]
    if len(mine_records(largest, config, obs=obs)) <= 1:
        return [section]  # the big record does not decompose: fine as is

    # Every record decomposes (or not); gather the pieces.
    pieces_per_record = [
        mine_records(r, config, obs=obs) if len(r) > 1 else [r]
        for r in records
    ]

    # Decide sections-vs-merged-records on the consecutive pairs where
    # both sides decomposed.
    looks_like_sections = False
    for left, right in zip(pieces_per_record, pieces_per_record[1:]):
        if len(left) > 1 or len(right) > 1:
            if _boundary_is_special(left, right, config):
                looks_like_sections = True
                break

    if looks_like_sections:
        obs.count("granularity.sections_split")
        out = []
        for record, pieces in zip(records, pieces_per_record):
            out.append(
                SectionInstance(
                    page=section.page,
                    block=record,
                    records=pieces,
                    lbm=None,
                    rbm=None,
                    origin="granularity-split",
                )
            )
        if out:
            out[0].lbm = section.lbm
            out[-1].rbm = section.rbm
        return out

    flattened = [piece for pieces in pieces_per_record for piece in pieces]
    # Only adopt the finer reading when it actually scores better.
    if section_cohesion(flattened, config) > section_cohesion(records, config):
        section.records = flattened
        section.origin = section.origin + "+remined"
        obs.count("granularity.records_remined")
    return [section]


def _fix_split_records(
    section: SectionInstance,
    config: FeatureConfig,
    obs: ObserverLike = NULL_OBSERVER,
) -> None:
    """Try coarser partitions (combine k consecutive records) in place."""
    records = section.records
    n = len(records)
    if n < 2:
        return
    if _uniform_starts(records):
        # Every record opens with the same title-ish line: the partition
        # is separator-backed, and coarser groupings would be the very
        # oversized-record error this pass exists to avoid.
        return

    page = section.page
    best = records
    best_score = section_cohesion(records, config)
    for k in range(2, n + 1):
        if n % k != 0:
            continue  # uneven groupings would misalign every later record
        combined: List[Block] = []
        for i in range(0, n, k):
            chunk = records[i : i + k]
            combined.append(Block(page, chunk[0].start, chunk[-1].end))
        score = section_cohesion(combined, config)
        if score > best_score:
            best, best_score = combined, score
    if best is not records:
        section.records = best
        section.origin = section.origin + "+combined"
        obs.count("granularity.records_recombined")


def _merge_sibling_singletons(
    sections: List[SectionInstance],
    obs: ObserverLike = NULL_OBSERVER,
) -> List[SectionInstance]:
    """Consecutive sibling one-record sections -> one section (§5.5 end)."""
    out: List[SectionInstance] = []
    i = 0
    while i < len(sections):
        run = [sections[i]]
        while i + len(run) < len(sections):
            nxt = sections[i + len(run)]
            if not _mergeable(run[-1], nxt):
                break
            run.append(nxt)
        if len(run) >= 2:
            obs.count("granularity.singletons_merged", len(run))
            page = run[0].page
            merged = SectionInstance(
                page=page,
                block=Block(page, run[0].start, run[-1].end),
                records=[s.block for s in run],
                lbm=run[0].lbm,
                rbm=run[-1].rbm,
                origin="granularity-merged",
            )
            out.append(merged)
        else:
            out.append(run[0])
        i += len(run)
    return out


def _outermost_exact(
    page: RenderedPage, start: int, end: int
) -> Optional[Element]:
    """The highest element whose rendered lines are exactly ``start..end``.

    The minimum subtree of a one-record section may sit several wrappers
    deep (a ``tr`` inside its own ``table``); the sibling test of §5.5
    applies to the outermost such wrapper.
    """
    node = page.span_subtree(start, end)
    if node is None:
        return None
    while (
        node.parent is not None
        and page.line_range_of_element(node.parent) == (start, end)
    ):
        node = node.parent
    return node


def _mergeable(left: SectionInstance, right: SectionInstance) -> bool:
    if len(left.records) != 1 or len(right.records) != 1:
        return False
    if right.start != left.end + 1:
        return False  # a gap (e.g. a boundary marker) separates them
    subtree_left = _outermost_exact(left.page, left.start, left.end)
    subtree_right = _outermost_exact(right.page, right.start, right.end)
    if subtree_left is None or subtree_right is None:
        return False
    return subtree_left.parent is subtree_right.parent


def resolve_granularity(
    sections: Sequence[SectionInstance],
    config: FeatureConfig = DEFAULT_CONFIG,
    obs: ObserverLike = NULL_OBSERVER,
) -> List[SectionInstance]:
    """Run the full §5.5 pass over one page's sections (in page order)."""
    expanded: List[SectionInstance] = []
    for section in sections:
        expanded.extend(_fix_oversized(section, config, obs=obs))
    for section in expanded:
        _fix_split_records(section, config, obs=obs)
    merged = _merge_sibling_singletons(expanded, obs=obs)
    merged.sort(key=lambda s: s.start)
    return merged
