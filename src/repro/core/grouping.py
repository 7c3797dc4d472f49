"""Grouping section instances of the same schema across pages (§5.6).

A matching score is computed between every pair of sections from two
different sample pages — combining tag-path similarity, boundary-marker
similarity and record tag-forest similarity.  Per page pair, the stable
marriage algorithm (with a no-match threshold) picks consistent matches;
across all pairs the matches form a graph whose maximal cliques of size
>= 2 (Bron-Kerbosch) are the *section instance groups*, one per section
schema.  Instances that match nothing on any other page are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.algorithms.cliques import section_instance_groups
from repro.algorithms.stable_marriage import stable_match
from repro.core.model import SectionInstance
from repro.features.config import DEFAULT_CONFIG, FeatureConfig
from repro.obs import NULL_OBSERVER, ObserverLike
from repro.perf.fingerprints import block_fingerprint
from repro.perf.kernels import memo_forest_distance
from repro.render.lines import ContentLine
from repro.tagpath.paths import TagPath

#: Minimum matching score for two instances to be considered the same
#: schema; the stable-marriage "allow no match" threshold.
MATCH_THRESHOLD = 0.60

#: weights of (tag path, SBM, tag forest) similarity in the match score
SCORE_WEIGHTS = (0.40, 0.30, 0.30)


def _section_path(section: SectionInstance) -> Optional[TagPath]:
    subtree = section.page.span_subtree(section.start, section.end)
    if subtree is None:
        return None
    return TagPath.to_node(subtree)


def _path_similarity(s1: SectionInstance, s2: SectionInstance) -> float:
    """Tag-path similarity in [0, 1].

    Incompatible paths score 0.  For compatible paths the Formula-1
    distance is halved before conversion: the same schema legitimately
    shifts by several sibling positions between pages (preceding sections
    appear and disappear), and Dtp normalizes by *total* S count, which is
    small for typical prefs — raw Dtp would punish such shifts as hard as
    a structural mismatch.
    """
    path1 = _section_path(s1)
    path2 = _section_path(s2)
    if path1 is None or path2 is None or not path1.compatible(path2):
        return 0.0
    return 1.0 - min(1.0, 0.5 * path1.distance(path2))


def _sbm_similarity(s1: SectionInstance, s2: SectionInstance) -> float:
    """Boundary-marker agreement in [-1, 1].

    Markers are a section schema's identity: two instances with *present
    but different* markers are almost certainly different schemas even if
    their tag structure is identical (sections sharing one table, Figure
    10), so disagreement is penalized rather than merely unrewarded.
    """

    def marker_sim(
        line1: Optional[ContentLine], line2: Optional[ContentLine]
    ) -> float:
        if line1 is None and line2 is None:
            return 0.5  # both unmarked: weak evidence either way
        if line1 is None or line2 is None:
            return 0.0
        return 1.0 if line1.cleaned == line2.cleaned else -1.0

    left = marker_sim(s1.lbm_line, s2.lbm_line)
    right = marker_sim(s1.rbm_line, s2.rbm_line)
    # The LBM dominates: it belongs to the section itself, whereas the RBM
    # is often the *next* section's header and varies with which sections
    # happen to be present on each page.
    return 0.75 * left + 0.25 * right


def _forest_similarity(s1: SectionInstance, s2: SectionInstance) -> float:
    if not s1.records or not s2.records:
        return 0.0
    rep1 = s1.records[0]
    rep2 = s2.records[0]
    return 1.0 - memo_forest_distance(
        block_fingerprint(rep1).forest_sig, block_fingerprint(rep2).forest_sig
    )


def match_score(s1: SectionInstance, s2: SectionInstance) -> float:
    """The §5.6 matching score between two section instances, in [0, 1]."""
    w_path, w_sbm, w_forest = SCORE_WEIGHTS
    return (
        w_path * _path_similarity(s1, s2)
        + w_sbm * _sbm_similarity(s1, s2)
        + w_forest * _forest_similarity(s1, s2)
    )


@dataclass
class InstanceGroup:
    """One section schema's instances across sample pages."""

    members: List[Tuple[int, SectionInstance]]  # (page index, instance)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def instances(self) -> List[SectionInstance]:
        return [instance for _, instance in self.members]


def group_section_instances(
    sections_per_page: Sequence[Sequence[SectionInstance]],
    threshold: float = MATCH_THRESHOLD,
    obs: ObserverLike = NULL_OBSERVER,
) -> List[InstanceGroup]:
    """Cluster section instances into schema groups (§5.6).

    ``sections_per_page[i]`` are the refined sections of sample page i.
    Returns groups ordered by the document position of their earliest
    instance, so wrapper order follows page layout order.
    """
    vertices: List[Tuple[int, int]] = []  # (page index, section index)
    for page_index, sections in enumerate(sections_per_page):
        for section_index in range(len(sections)):
            vertices.append((page_index, section_index))

    edges: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
    pages = len(sections_per_page)
    for i in range(pages):
        for j in range(i + 1, pages):
            rows = sections_per_page[i]
            cols = sections_per_page[j]
            if not rows or not cols:
                continue
            scores = [[match_score(a, b) for b in cols] for a in rows]
            for row, col in stable_match(scores, threshold=threshold):
                edges.append(((i, row), (j, col)))

    obs.count("grouping.instances", len(vertices))
    obs.count("grouping.edges", len(edges))
    cliques = section_instance_groups(vertices, edges, min_size=2)
    obs.count("grouping.cliques", len(cliques))
    merged = _merge_overlapping_cliques(cliques)

    groups: List[InstanceGroup] = []
    for clique in merged:
        members = sorted(clique)
        # One instance per page: a merged group can briefly hold two
        # same-page instances; keep the earliest (document order) per page.
        seen_pages: Set[int] = set()
        unique: List[Tuple[int, int]] = []
        for page_index, section_index in members:
            if page_index in seen_pages:
                continue
            seen_pages.add(page_index)
            unique.append((page_index, section_index))
        if len(unique) < 2:
            continue
        groups.append(
            InstanceGroup(
                members=[
                    (page_index, sections_per_page[page_index][section_index])
                    for page_index, section_index in unique
                ]
            )
        )
    groups.sort(
        key=lambda g: min(instance.start for instance in g.instances)
    )
    obs.count("grouping.groups", len(groups))
    return groups


def _merge_overlapping_cliques(
    cliques: Sequence[FrozenSet[Tuple[int, int]]],
) -> List[Set[Tuple[int, int]]]:
    """Union maximal cliques that share an instance.

    When a schema's instances vary (boundary noise on some pages), the
    match graph is near-complete rather than complete and Bron-Kerbosch
    reports several overlapping maximal cliques for the *same* schema —
    which would become duplicate wrappers.  Cliques sharing a vertex are
    merged back into one instance group.
    """
    merged: List[Set[Tuple[int, int]]] = []
    for clique in cliques:
        group = set(clique)
        absorbed: List[Set[Tuple[int, int]]] = []
        for existing in merged:
            if existing & group:
                group |= existing
                absorbed.append(existing)
        for existing in absorbed:
            merged.remove(existing)
        merged.append(group)
    return merged
