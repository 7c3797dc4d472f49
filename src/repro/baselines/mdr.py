"""MDR baseline — Mining Data Records in Web Pages (Liu et al., SIGKDD'03).

The paper compares against MDR qualitatively (§7): MDR can output
multiple sections but does not separate dynamic sections from static
content, needs at least two records per section, works best on
table/form-enwrapped records, and builds no wrapper (it re-mines every
page).  This implementation follows the published algorithm closely
enough to reproduce those properties:

1. walk the DOM top-down; at every element with two or more element
   children, try *generalized nodes* of length k = 1..MAX_K: adjacent
   groups of k children whose tag structures are similar (normalized
   tree edit distance over the combined forest <= threshold, computed
   by the same memoized signature kernel as MSE's Dtf,
   :func:`repro.perf.kernels.memo_forest_distance`);
2. maximal runs of two or more similar adjacent generalized nodes form
   a *data region*; children covered by a region are not re-mined at
   deeper levels;
3. each generalized node of a region is reported as one data record
   (the usual MDR record-identification case for contiguous records).

Output is converted to line spans on the rendered page so the standard
evaluation harness can grade it against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.model import ExtractedRecord, ExtractedSection, PageExtraction
from repro.htmlmod.dom import Document, Element
from repro.htmlmod.parser import parse_html
from repro.perf.fingerprints import interned_element_forest_signature
from repro.perf.kernels import memo_forest_distance
from repro.render.layout import render_page
from repro.render.lines import RenderedPage

#: maximum generalized-node length (MDR uses up to ~10; small page
#: structures rarely need more than 3 and the cost is quadratic in K)
MAX_K = 3

#: similarity threshold on the normalized edit distance between the tag
#: forests of adjacent generalized nodes (MDR's edit-distance threshold)
SIMILARITY_THRESHOLD = 0.3

#: ignore trivially small subtrees (MDR's minimum node requirement)
MIN_SUBTREE_SIZE = 2


@dataclass
class DataRegion:
    """A run of similar generalized nodes under one parent."""

    parent: Element
    k: int
    start_child: int  # index into parent's element children
    node_count: int  # number of generalized nodes

    def generalized_nodes(self) -> List[List[Element]]:
        children = self.parent.child_elements()
        out = []
        for i in range(self.node_count):
            begin = self.start_child + i * self.k
            out.append(children[begin : begin + self.k])
        return out


def _find_regions(element: Element) -> List[DataRegion]:
    """Top-down data-region discovery (MDR's MDR/IdentDR step)."""
    regions: List[DataRegion] = []
    children = element.child_elements()

    covered: set = set()
    best: Optional[DataRegion] = None
    for k in range(1, MAX_K + 1):
        if len(children) < 2 * k:
            continue
        i = 0
        while i + 2 * k <= len(children):
            count = 1
            j = i
            while j + 2 * k <= len(children):
                left = interned_element_forest_signature(children[j : j + k])
                right = interned_element_forest_signature(children[j + k : j + 2 * k])
                if (
                    sum(len(tree) for tree in left) >= MIN_SUBTREE_SIZE
                    and memo_forest_distance(left, right) <= SIMILARITY_THRESHOLD
                ):
                    count += 1
                    j += k
                else:
                    break
            if count >= 2:
                region = DataRegion(element, k, i, count)
                # Prefer the region covering more children (MDR keeps the
                # largest region at a node).
                if best is None or count * k > best.node_count * best.k:
                    best = region
                i = j + k
            else:
                i += 1
    if best is not None:
        regions.append(best)
        for index in range(
            best.start_child, best.start_child + best.node_count * best.k
        ):
            covered.add(id(children[index]))

    for child in children:
        if id(child) in covered:
            continue
        regions.extend(_find_regions(child))
    return regions


def _region_to_section(
    region: DataRegion, page: RenderedPage
) -> Optional[ExtractedSection]:
    records: List[ExtractedRecord] = []
    for node_group in region.generalized_nodes():
        spans = [page.line_range_of_element(e) for e in node_group]
        spans = [s for s in spans if s is not None]
        if not spans:
            continue
        start = min(s[0] for s in spans)
        end = max(s[1] for s in spans)
        lines = tuple(line.text for line in page.lines[start : end + 1])
        records.append(ExtractedRecord(lines=lines, line_span=(start, end)))
    if len(records) < 2:
        return None  # MDR's two-record minimum
    return ExtractedSection(
        records=tuple(records),
        line_span=(records[0].line_span[0], records[-1].line_span[1]),
        schema_id="mdr",
    )


def mdr_extract(markup_or_document, query: str = "") -> PageExtraction:
    """Run MDR on one page; the query is ignored (MDR is single-page).

    Returns all mined data regions as sections — static repetitions
    included, because MDR has no dynamic/static distinction.
    """
    if isinstance(markup_or_document, Document):
        document = markup_or_document
    else:
        document = parse_html(markup_or_document)
    page = render_page(document)

    sections: List[ExtractedSection] = []
    for region in _find_regions(document.body):
        section = _region_to_section(region, page)
        if section is not None:
            sections.append(section)
    sections.sort(key=lambda s: s.line_span[0])
    return PageExtraction(sections=tuple(sections))
