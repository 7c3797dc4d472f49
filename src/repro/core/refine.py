"""Refining MRs against DSs (paper §5.3, Figures 6-8).

MRs (visual pattern mining) and DSs (boundary-marker analysis) are
obtained independently; comparing them repairs both:

- **case 1** exact match — keep the MR's records as the DS's records;
- **case 2** an MR spans several DSs — the MR swallowed boundary markers;
  it is split at the DS boundaries and each piece refined;
- **case 3** a DS contains MRs — the DS has extra lines (ED) around or
  between the MRs; records are grown into the ED while they stay similar
  to the verified overlap records, leftovers become new DSs;
- **case 4** partial overlap — the extra-MR part (EM) is cut back after
  verifying the DS's LBM (an LBM whose surrounding record looks like the
  overlap records is *false* and the section extends across it); the
  extra-DS part (ED) is absorbed record-by-record as in case 3;
- **case 5** an MR with no DS overlap is static repetition — dropped; a
  DS with no MR is kept for record mining (it may hold < 3 records).

The similarity test throughout is the paper's
``Davgrs(r, OL) <= W * Dinr(OL)`` with ``W = 1.8``; ``Dinr(OL)`` is
floored (see :class:`repro.features.config.FeatureConfig`) because
same-format records can have distance exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.dse import DynamicSection
from repro.core.model import SectionInstance
from repro.core.mre import TentativeMR
from repro.features.blocks import Block
from repro.features.config import DEFAULT_CONFIG, FeatureConfig
from repro.features.cohesion import inter_record_distance
from repro.features.record_distance import average_distance
from repro.obs import NULL_OBSERVER, ObserverLike
from repro.render.lines import RenderedPage


def _threshold(overlap_records: Sequence[Block], config: FeatureConfig) -> float:
    """W * max(Dinr(OL), floor) — the record-acceptance threshold."""
    dinr = inter_record_distance(overlap_records, config)
    return config.refine_w * max(dinr, config.dinr_floor)


def _similar(
    candidate: Block, overlap_records: Sequence[Block], config: FeatureConfig
) -> bool:
    return average_distance(candidate, overlap_records, config) <= _threshold(
        overlap_records, config
    )


def _grow_into_ed(
    page: RenderedPage,
    records: List[Block],
    ed_start: int,
    ed_end: int,
    side: str,
    config: FeatureConfig,
) -> Tuple[List[Block], Optional[Tuple[int, int]]]:
    """Absorb ED lines into ``records`` (Figure 8, lines 7-14).

    Tentative records grow cumulatively from the section edge outward; the
    best one is accepted while it passes the similarity test.  Returns the
    updated records and the leftover ED span (a new DS), if any.
    """
    while ed_start <= ed_end:
        if side == "right":
            tentative = [Block(page, ed_start, e) for e in range(ed_start, ed_end + 1)]
        else:
            tentative = [Block(page, s, ed_end) for s in range(ed_end, ed_start - 1, -1)]
        best = min(tentative, key=lambda b: average_distance(b, records, config))
        if not _similar(best, records, config):
            break
        if side == "right":
            records.append(best)
            ed_start = best.end + 1
        else:
            records.insert(0, best)
            ed_end = best.start - 1
    leftover = (ed_start, ed_end) if ed_start <= ed_end else None
    return records, leftover


def _previous_csbm(csbms: Set[int], before: int) -> Optional[int]:
    candidates = [n for n in csbms if n < before]
    return max(candidates) if candidates else None


def _next_csbm(csbms: Set[int], after: int, page_len: int) -> Optional[int]:
    candidates = [n for n in csbms if n > after]
    return min(candidates) if candidates else None


def _verify_boundary(
    mr_records: List[Block],
    overlap: List[Block],
    marker: int,
    side: str,
    csbms: Set[int],
    config: FeatureConfig,
) -> Tuple[List[Block], Optional[int]]:
    """EM handling (Figure 8, lines 2-6), generalized to either side.

    ``marker`` is the current boundary-marker line (the DS's LBM or RBM),
    which lies inside the MR's span.  While the MR record containing the
    marker looks like the overlap records, the marker is false: the record
    is absorbed and the next CSBM outward becomes the tentative marker.
    Returns the accepted extra records (outward order) and the verified
    marker line (None when the section runs to the MR's edge unmarked).
    """
    accepted: List[Block] = []
    current_marker: Optional[int] = marker
    while current_marker is not None:
        containing = [
            r for r in mr_records if r.start <= current_marker <= r.end
        ]
        if not containing:
            break
        boundary_record = containing[0]
        if not _similar(boundary_record, overlap + accepted, config):
            break  # marker verified
        accepted.append(boundary_record)
        if side == "left":
            current_marker = _previous_csbm(csbms, boundary_record.start)
        else:
            current_marker = _next_csbm(
                csbms, boundary_record.end, len(boundary_record.page.lines)
            )
    return accepted, current_marker


@dataclass
class RefineResult:
    """Output of the refinement stage for one page."""

    #: sections whose records are already identified (from MRs)
    sections: List[SectionInstance]
    #: DS fragments still needing record mining (§5.4)
    pending: List[DynamicSection]


def _overlap_case(
    mr: TentativeMR, ds: DynamicSection, dss: Sequence[DynamicSection]
) -> str:
    """Classify one MR/DS interaction into the §5.3 case taxonomy.

    Used only for observability counters (``refine.case*``); the actual
    repair logic below handles all cases uniformly.
    """
    if mr.start == ds.start and mr.end == ds.end:
        return "case1_exact"
    spanned = sum(
        1 for other in dss if mr.start <= other.end and other.start <= mr.end
    )
    if spanned > 1:
        return "case2_mr_spans_dss"
    if ds.start <= mr.start and mr.end <= ds.end:
        return "case3_ds_contains_mr"
    return "case4_partial"


def refine_page(
    page: RenderedPage,
    mrs: Sequence[TentativeMR],
    dss: Sequence[DynamicSection],
    csbms: Set[int],
    config: FeatureConfig = DEFAULT_CONFIG,
    obs: ObserverLike = NULL_OBSERVER,
) -> RefineResult:
    """Run the §5.3 refinement over one page's MRs and DSs."""
    if obs.enabled:
        # Case 5's static half: MRs that overlap no DS are repeated
        # template content and never enter the loop below.
        for mr in mrs:
            if not any(mr.start <= ds.end and ds.start <= mr.end for ds in dss):
                obs.count("refine.case5_static_mr")

    sections: List[SectionInstance] = []
    pending: List[DynamicSection] = []
    claimed: List[Tuple[int, int]] = []  # line spans owned by sections

    for ds in dss:
        if _fully_claimed(ds, claimed):
            continue  # an earlier section already absorbed these lines
        overlapping = [
            mr for mr in mrs if mr.start <= ds.end and ds.start <= mr.end
        ]
        if not overlapping:
            pending.append(ds)  # case 5: dynamic for sure, mine later
            obs.count("refine.case5_unmatched_ds")
            continue
        if obs.enabled:
            for mr in overlapping:
                obs.count(f"refine.{_overlap_case(mr, ds, dss)}")

        overlapping.sort(key=lambda mr: mr.start)
        cursor = ds.start  # first unassigned DS line

        for mr_index, mr in enumerate(overlapping):
            overlap = [
                r for r in mr.records if r.start >= ds.start and r.end <= ds.end
            ]
            if not overlap:
                # No record sits fully inside: a false in-section CSBM may
                # have chopped the DS smaller than one record.  Fall back
                # to the records that intersect it.
                overlap = [
                    r for r in mr.records if r.start <= ds.end and ds.start <= r.end
                ]
            if not overlap:
                continue  # negligible overlap; MR likely belongs elsewhere

            records = list(overlap)

            # --- EM on the left: MR extends left past the DS (case 4) ---
            if mr.start < ds.start and ds.lbm is not None:
                extra, _marker = _verify_boundary(
                    list(mr.records), overlap, ds.lbm, "left", csbms, config
                )
                for record in extra:
                    # Absorbed records extend the section past the old LBM.
                    records.insert(0, record)

            # --- EM on the right: MR extends right past the DS ---
            if mr.end > ds.end and ds.rbm is not None:
                extra, _marker = _verify_boundary(
                    list(mr.records), overlap, ds.rbm, "right", csbms, config
                )
                records.extend(extra)

            # --- ED before this MR's records (case 3 / case 4 left) ---
            first_start = records[0].start
            if cursor < first_start:
                records, leftover = _grow_into_ed(
                    page, records, cursor, first_start - 1, "left", config
                )
                if leftover is not None:
                    pending.append(
                        DynamicSection(page, leftover[0], leftover[1], lbm=ds.lbm)
                    )

            # --- ED after the last MR's records up to the DS end ---
            is_last = mr_index == len(overlapping) - 1
            last_end = records[-1].end
            ed_limit = ds.end if is_last else min(ds.end, overlapping[mr_index + 1].start - 1)
            if last_end < ed_limit:
                records, leftover = _grow_into_ed(
                    page, records, last_end + 1, ed_limit, "right", config
                )
                if leftover is not None and is_last:
                    pending.append(
                        DynamicSection(page, leftover[0], leftover[1], rbm=ds.rbm)
                    )
                # Leftover between two MRs is handled by the next MR's
                # left-side ED pass via the cursor.

            records = _dedupe_records(records)
            records = [
                r
                for r in records
                if not any(cs <= r.end and r.start <= ce for cs, ce in claimed)
            ]
            if not records:
                continue  # an earlier section already owns these lines
            sections.append(
                SectionInstance(
                    page=page,
                    block=Block(page, records[0].start, records[-1].end),
                    records=records,
                    lbm=_previous_csbm(csbms, records[0].start),
                    rbm=_next_csbm(csbms, records[-1].end, len(page.lines)),
                    origin="refine",
                )
            )
            claimed.append((records[0].start, records[-1].end))
            cursor = max(cursor, records[-1].end + 1)

    # Remove pending fragments swallowed by refined sections.
    pending = _subtract_claimed(pending, claimed)
    sections.sort(key=lambda s: s.start)
    pending.sort(key=lambda d: d.start)
    return RefineResult(sections=sections, pending=pending)


def _fully_claimed(ds: DynamicSection, claimed: List[Tuple[int, int]]) -> bool:
    return any(start <= ds.start and ds.end <= end for start, end in claimed)


def _dedupe_records(records: List[Block]) -> List[Block]:
    """Sort records and drop duplicates / fully-contained ones."""
    ordered = sorted(set(records), key=lambda r: (r.start, -r.end))
    out: List[Block] = []
    for record in ordered:
        if out and record.end <= out[-1].end:
            continue  # contained in the previous record
        out.append(record)
    return out


def _subtract_claimed(
    pending: List[DynamicSection], claimed: List[Tuple[int, int]]
) -> List[DynamicSection]:
    """Clip pending DS fragments against lines claimed by refined sections."""
    out: List[DynamicSection] = []
    for ds in pending:
        fragments = [(ds.start, ds.end)]
        for c_start, c_end in claimed:
            next_fragments: List[Tuple[int, int]] = []
            for f_start, f_end in fragments:
                if c_end < f_start or c_start > f_end:
                    next_fragments.append((f_start, f_end))
                    continue
                if f_start < c_start:
                    next_fragments.append((f_start, c_start - 1))
                if c_end < f_end:
                    next_fragments.append((c_end + 1, f_end))
            fragments = next_fragments
        for f_start, f_end in fragments:
            out.append(
                DynamicSection(
                    ds.page,
                    f_start,
                    f_end,
                    lbm=ds.lbm if f_start == ds.start else None,
                    rbm=ds.rbm if f_end == ds.end else None,
                )
            )
    return out
