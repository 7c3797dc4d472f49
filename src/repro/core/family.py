"""Section families (paper §5.8) — extracting *hidden* sections.

Wrappers exist only for schemas seen on at least two sample pages; query-
dependent sections unseen at induction time would be missed.  A *section
family* generalizes a set of wrappers that share structure:

- **Type 1** — members share the same ``pref`` *and* ``seps``; their
  sections are consecutive child ranges of a single subtree, delimited by
  boundary-marker lines recognizable purely by their line text attribute
  (which differs from every record line's attribute).  The family wrapper
  ⟨pref, seps, aLBMs, aRBMs⟩ re-partitions the subtree at extraction time
  and therefore finds *any* number of sections, seen or not.
- **Type 2** — members share ``seps`` and their prefs share a common
  prefix and suffix, differing only in S counts in between (the sections
  are siblings at varying positions).  The family wrapper
  ⟨ppref, spref, seps, aLBMs, aRBMs⟩ searches every sibling position and
  keeps those confirmed by the boundary-marker attribute.

Wrappers folded into a family are removed from the per-schema list; the
family takes over their extraction (and may extract more instances).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.model import SectionInstance
from repro.core.wrapper import (
    SectionWrapper,
    SeparatorRule,
    partition_subtree_records,
)
from repro.features.blocks import Block
from repro.htmlmod.dom import Element
from repro.obs import NULL_OBSERVER, ObserverLike
from repro.render.lines import RenderedPage
from repro.render.styles import TextAttr
from repro.tagpath.paths import MergedTagPath


def _attrs_distinct_from_records(
    marker_attrs: FrozenSet[TextAttr], wrappers: Sequence[SectionWrapper]
) -> bool:
    """The §5.8 condition: marker attrs differ from every record attr.

    A family recognizes boundaries purely by line text attribute; if any
    record line shares an attribute with the markers, the family would cut
    sections inside records, so it must not be built with that marker.
    """
    if not marker_attrs:
        return False
    for wrapper in wrappers:
        if marker_attrs & wrapper.record_attrs:
            return False
    return True


@dataclass
class SectionFamily:
    """Base class for section families; subclasses implement ``apply``."""

    member_ids: Tuple[str, ...]
    separator: SeparatorRule
    lbm_attrs: FrozenSet[TextAttr]
    rbm_attrs: FrozenSet[TextAttr]
    family_id: str = ""

    def apply(self, page: RenderedPage) -> List[Tuple[str, SectionInstance]]:
        """Extract this family's sections from one rendered page."""
        raise NotImplementedError


@dataclass
class Type1Family(SectionFamily):
    """Members share pref and seps; sections are marker-delimited ranges
    of one subtree's children."""

    pref: MergedTagPath = None  # type: ignore[assignment]

    def apply(self, page: RenderedPage) -> List[Tuple[str, SectionInstance]]:
        out: List[Tuple[str, SectionInstance]] = []
        for subtree in self.pref.find(page.document.root, slack=0):
            out.extend(self._sections_of_subtree(page, subtree))
        return out

    def _sections_of_subtree(
        self, page: RenderedPage, subtree: Element
    ) -> List[Tuple[str, SectionInstance]]:
        span = page.line_range_of_element(subtree)
        if span is None:
            return []
        start, end = span

        # Boundary lines: attribute-recognizable markers inside the span.
        # rbm_attrs participates only when it was verified distinct from
        # record attrs at family construction (it is cleared otherwise).
        boundaries = [
            line.number
            for line in page.lines[start : end + 1]
            if line.attrs == self.lbm_attrs
            or (self.rbm_attrs and line.attrs == self.rbm_attrs)
        ]
        if not boundaries:
            return []

        segments: List[Tuple[int, int, Optional[int]]] = []
        cuts = sorted(set(boundaries))
        for i, cut in enumerate(cuts):
            seg_start = cut + 1
            seg_end = cuts[i + 1] - 1 if i + 1 < len(cuts) else end
            if seg_start <= seg_end:
                segments.append((seg_start, seg_end, cut))

        out: List[Tuple[str, SectionInstance]] = []
        for index, (seg_start, seg_end, lbm) in enumerate(segments):
            records = self._partition_segment(page, subtree, seg_start, seg_end)
            if not records:
                continue
            instance = SectionInstance(
                page=page,
                block=Block(page, records[0].start, records[-1].end),
                records=records,
                lbm=lbm,
                rbm=records[-1].end + 1
                if records[-1].end + 1 < len(page.lines)
                else None,
                origin=f"family1:{self.family_id}",
                # Attribute-verified boundaries outrank wrapper heuristics.
                score=2.0,
            )
            schema = (
                self.member_ids[index]
                if index < len(self.member_ids)
                else f"{self.family_id}#hidden{index}"
            )
            out.append((schema, instance))
        return out

    def _partition_segment(
        self, page: RenderedPage, subtree: Element, start: int, end: int
    ) -> List[Block]:
        boundaries: List[int] = []
        for child in subtree.children:
            if not isinstance(child, Element):
                continue
            child_span = page.line_range_of_element(child)
            if child_span is None or child_span[0] < start or child_span[0] > end:
                continue
            if (
                self.separator.kind == "per-child"
                or (self.separator.kind == "child-start" and child.tag == self.separator.tag)
            ):
                boundaries.append(child_span[0])
        if not boundaries:
            if self.separator.kind == "whole" and start <= end:
                return [Block(page, start, end)]
            return []
        usable = sorted({b for b in boundaries if start < b <= end})
        blocks: List[Block] = []
        current = min(boundaries)
        for boundary in usable:
            if boundary > current:
                blocks.append(Block(page, current, boundary - 1))
                current = boundary
        blocks.append(Block(page, current, end))
        return blocks


@dataclass
class Type2Family(SectionFamily):
    """Members share seps; prefs differ only at flexible sibling levels."""

    pref: MergedTagPath = None  # type: ignore[assignment]
    #: per member: the S counts at the flexible levels, identifying which
    #: candidate position corresponds to which known schema
    member_positions: Dict[Tuple[int, ...], str] = field(default_factory=dict)

    def apply(self, page: RenderedPage) -> List[Tuple[str, SectionInstance]]:
        out: List[Tuple[str, SectionInstance]] = []
        hidden = 0
        for subtree in self.pref.find(page.document.root, slack=0):
            span = page.line_range_of_element(subtree)
            if span is None:
                continue
            start, end = span
            before = page.lines[start - 1] if start - 1 >= 0 else None
            if before is None or before.attrs != self.lbm_attrs:
                continue  # the attribute-marker confirmation failed
            if not _separator_applies(subtree, self.separator):
                continue  # structurally alien: not a member of this family
            records = partition_subtree_records(page, subtree, self.separator)
            if not records:
                continue
            key = _flexible_key(self.pref, subtree)
            schema = self.member_positions.get(key)
            if schema is None:
                schema = f"{self.family_id}#hidden{hidden}"
                hidden += 1
            instance = SectionInstance(
                page=page,
                block=Block(page, records[0].start, records[-1].end),
                records=records,
                lbm=start - 1,
                rbm=end + 1 if end + 1 < len(page.lines) else None,
                origin=f"family2:{self.family_id}",
                # Attribute-verified boundaries outrank wrapper heuristics.
                score=2.0,
            )
            out.append((schema, instance))
        return out


def _separator_applies(subtree: Element, separator: SeparatorRule) -> bool:
    """Whether a candidate subtree has the structure the family's seps
    expect.  A Type 2 family must not claim a sibling section of a
    *different* schema just because its header looks the same."""
    if separator.kind != "child-start":
        return True
    return any(
        isinstance(child, Element) and child.tag == separator.tag
        for child in subtree.children
    )


def _flexible_key(pref: MergedTagPath, subtree: Element) -> Tuple[int, ...]:
    """The subtree's S counts at the pref's flexible levels."""
    from repro.tagpath.paths import TagPath

    concrete = TagPath.to_node(subtree)
    return tuple(
        step.s_count
        for step, fixed in zip(concrete.steps, pref.fixed_counts)
        if fixed is None
    )


def build_families(
    wrappers: Sequence[SectionWrapper],
    obs: ObserverLike = NULL_OBSERVER,
) -> Tuple[List[SectionFamily], List[SectionWrapper]]:
    """Fold wrappers into Type 1 / Type 2 families where possible (§5.8).

    Returns (families, remaining wrappers).  A wrapper joins at most one
    family; Type 1 (same pref) is checked before Type 2 (same-shape pref).
    """
    remaining = list(wrappers)
    families: List[SectionFamily] = []

    families_t1, remaining = _build_type1(remaining)
    families.extend(families_t1)
    families_t2, remaining = _build_type2(remaining)
    families.extend(families_t2)
    obs.count("families.type1", len(families_t1))
    obs.count("families.type2", len(families_t2))
    obs.count(
        "families.member_wrappers",
        sum(len(family.member_ids) for family in families),
    )
    return families, remaining


def _group_key_type1(wrapper: SectionWrapper) -> Tuple[object, ...]:
    return (
        wrapper.pref.tags,
        wrapper.pref.fixed_counts,
        str(wrapper.separator),
        wrapper.lbm_attrs,
    )


def _build_type1(
    wrappers: List[SectionWrapper],
) -> Tuple[List[SectionFamily], List[SectionWrapper]]:
    groups: Dict[Tuple[object, ...], List[SectionWrapper]] = {}
    for wrapper in wrappers:
        groups.setdefault(_group_key_type1(wrapper), []).append(wrapper)

    families: List[SectionFamily] = []
    leftover: List[SectionWrapper] = []
    index = 0
    for members in groups.values():
        eligible = (
            len(members) >= 2
            and all(w.markers_inside for w in members)
            and _attrs_distinct_from_records(members[0].lbm_attrs, members)
        )
        if eligible:
            rbm_attrs = members[0].rbm_attrs
            if not _attrs_distinct_from_records(rbm_attrs, members):
                rbm_attrs = frozenset()  # only LBM attrs can cut safely
            families.append(
                Type1Family(
                    member_ids=tuple(w.schema_id for w in members),
                    separator=members[0].separator,
                    lbm_attrs=members[0].lbm_attrs,
                    rbm_attrs=rbm_attrs,
                    family_id=f"T1-{index}",
                    pref=members[0].pref,
                )
            )
            index += 1
        else:
            leftover.extend(members)
    return families, leftover


def _build_type2(
    wrappers: List[SectionWrapper],
) -> Tuple[List[SectionFamily], List[SectionWrapper]]:
    groups: Dict[Tuple[object, ...], List[SectionWrapper]] = {}
    for wrapper in wrappers:
        key = (wrapper.pref.tags, str(wrapper.separator), wrapper.lbm_attrs)
        groups.setdefault(key, []).append(wrapper)

    families: List[SectionFamily] = []
    leftover: List[SectionWrapper] = []
    index = 0
    for members in groups.values():
        if len(members) >= 2 and _attrs_distinct_from_records(
            members[0].lbm_attrs, members
        ):
            merged, positions = _merge_member_prefs(members)
            if merged is None:
                leftover.extend(members)
                continue
            families.append(
                Type2Family(
                    member_ids=tuple(w.schema_id for w in members),
                    separator=members[0].separator,
                    lbm_attrs=members[0].lbm_attrs,
                    rbm_attrs=members[0].rbm_attrs,
                    family_id=f"T2-{index}",
                    pref=merged,
                    member_positions=positions,
                )
            )
            index += 1
        else:
            leftover.extend(members)
    return families, leftover


def _merge_member_prefs(
    members: Sequence[SectionWrapper],
) -> Tuple[Optional[MergedTagPath], Dict[Tuple[int, ...], str]]:
    """Merge member prefs: levels where they disagree become flexible."""
    tags = members[0].pref.tags
    levels = len(tags)
    fixed: List[Optional[int]] = []
    observed: List[Set[int]] = []
    for level in range(levels):
        counts: Set[int] = set()
        for wrapper in members:
            level_counts = wrapper.pref.observed_counts[level]
            counts |= level_counts
        observed.append(counts)
        fixed.append(next(iter(counts)) if len(counts) == 1 else None)

    if all(f is not None for f in fixed):
        return None, {}  # identical prefs should have been Type 1

    merged = MergedTagPath(tags, fixed, observed)
    positions: Dict[Tuple[int, ...], str] = {}
    for wrapper in members:
        key = tuple(
            next(iter(wrapper.pref.observed_counts[level]))
            if len(wrapper.pref.observed_counts[level]) == 1
            else -1
            for level in range(levels)
            if fixed[level] is None
        )
        positions[key] = wrapper.schema_id
    return merged, positions
