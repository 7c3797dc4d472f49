"""MRE — multi-record section extraction (paper §5.1).

A ViNTs-style visual pattern miner.  For one rendered page it finds all
*multi-record sections* (MRs): maximal runs of three or more visually
similar, consecutive candidate records.

Outline (following §5.1):

1. every content line gets a visual signature (type code, position code);
2. signatures occurring three or more times are candidate record-start
   patterns; each partitions the nearby lines into candidate record
   blocks, with the pattern line leading each block;
3. a run of consecutive candidate records is kept while the records stay
   visually similar (``Drec`` against the run) and their first-line tag
   paths stay compatible — runs of >= 3 records become *tentative MRs*;
4. tentative MRs from different signatures that cover much the same
   screen area are grouped, and the best MR of each group (most records,
   then lowest internal distance) is emitted.

Known limitations, by design (§5.1 lists them; later MSE stages repair
them): boundary records may be wrong, sections with < 3 records are not
found, static repeating content is extracted too, and section/record
granularity may be wrong.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.features.blocks import Block
from repro.features.config import DEFAULT_CONFIG, FeatureConfig
from repro.features.record_distance import record_distance
from repro.render.lines import ContentLine, RenderedPage
from repro.render.linetypes import LineType


@dataclass
class TentativeMR:
    """A candidate multi-record section produced by one signature run."""

    page: RenderedPage
    records: List[Block]

    @property
    def start(self) -> int:
        return self.records[0].start

    @property
    def end(self) -> int:
        return self.records[-1].end

    @property
    def span(self) -> int:
        return self.end - self.start + 1

    def block(self) -> Block:
        """The MR's full line span as one block."""
        return Block(self.page, self.start, self.end)

    def internal_distance(self, config: FeatureConfig = DEFAULT_CONFIG) -> float:
        """Mean consecutive record distance (0 for a single record)."""
        if len(self.records) < 2:
            return 0.0
        pairs = zip(self.records, self.records[1:])
        total = sum(record_distance(a, b, config) for a, b in pairs)
        return total / (len(self.records) - 1)


#: Maximum Drec between a candidate record and the nearest of the run's
#: recent records for the run to continue.  Records of one section may
#: alternate lengths (optional snippet/date lines), so each candidate is
#: compared against the last few records rather than only its neighbour.
#: Tuned on the test bed's training pages.
SIMILARITY_THRESHOLD = 0.55

#: How many trailing run records a candidate is compared against.
RUN_MEMORY = 3

#: Minimum records for MRE to report a section (the paper's "three or more").
MIN_RECORDS = 3

#: Two tentative MRs belong to the same screen-area group when their line
#: spans overlap by more than this fraction of the smaller span.
OVERLAP_FRACTION = 0.5


def _signature(line: ContentLine) -> Tuple[LineType, int]:
    return (line.line_type, line.position)


def _signature_occurrences(page: RenderedPage) -> Dict[Tuple[LineType, int], List[int]]:
    occurrences: Dict[Tuple[LineType, int], List[int]] = defaultdict(list)
    for line in page.lines:
        if line.line_type == LineType.HR:
            continue  # rules separate content; they never start records
        occurrences[_signature(line)].append(line.number)
    return occurrences


def _runs_from_occurrences(
    page: RenderedPage,
    starts: Sequence[int],
    config: FeatureConfig,
) -> List[TentativeMR]:
    """Grow maximal similar runs of candidate records from pattern starts."""
    if len(starts) < MIN_RECORDS:
        return []

    # Interior candidate records end right before the next occurrence; the
    # final record's extent is guessed from the median interior length and
    # clipped to the page (boundary refinement corrects it later).
    blocks: List[Block] = []
    lengths: List[int] = []
    for i, begin in enumerate(starts[:-1]):
        end = starts[i + 1] - 1
        blocks.append(Block(page, begin, end))
        lengths.append(end - begin + 1)
    median_len = sorted(lengths)[len(lengths) // 2]
    last_end = min(starts[-1] + median_len - 1, len(page.lines) - 1)
    blocks.append(Block(page, starts[-1], last_end))

    runs: List[TentativeMR] = []
    current: List[Block] = [blocks[0]]
    base_path = page.lines[blocks[0].start].tag_path

    for block in blocks[1:]:
        path = page.lines[block.start].tag_path
        compatible = path.compatible(base_path)
        similar = (
            min(
                record_distance(prev, block, config)
                for prev in current[-RUN_MEMORY:]
            )
            <= SIMILARITY_THRESHOLD
        )
        adjacent = block.start == current[-1].end + 1
        if compatible and similar and adjacent:
            current.append(block)
        else:
            if len(current) >= MIN_RECORDS:
                runs.append(TentativeMR(page, current))
            current = [block]
            base_path = path
    if len(current) >= MIN_RECORDS:
        runs.append(TentativeMR(page, current))
    return runs


#: Line types that can plausibly open a record (title-ish lines).
_START_TYPES = frozenset(
    {LineType.LINK, LineType.LINK_TEXT, LineType.IMAGE_TEXT}
)


def _reanchor_records(mr: TentativeMR) -> TentativeMR:
    """Identify record first lines and realign block boundaries (§5.1).

    The repeating visual pattern MRE keyed on may sit at the *end* of each
    record (e.g. the snippet line), leaving every boundary off by a line
    or two.  Following ViNTs, the first line of a record is identified as
    a title-ish line (link-bearing or heading) at the leftmost position of
    the section area; when those first lines form a plausible boundary set
    the records are rebuilt on them.  A leading stub before the first
    detected start is cut off — the refinement stage grows the section
    back over it if it really belongs (§5.3).
    """
    page = mr.page
    span_lines = page.lines[mr.start : mr.end + 1]
    title_lines = [line for line in span_lines if line.line_type in _START_TYPES]
    if not title_lines:
        return mr
    min_x = min(line.position for line in title_lines)
    starts = [line.number for line in title_lines if line.position == min_x]
    if len(starts) < MIN_RECORDS:
        return mr
    if not (len(mr.records) - 1 <= len(starts) <= len(mr.records) + 1):
        return mr  # ambiguous signal; keep the original partition
    current_starts = [record.start for record in mr.records]
    if starts == current_starts:
        return mr

    records = []
    for i, begin in enumerate(starts):
        end = starts[i + 1] - 1 if i + 1 < len(starts) else mr.end
        records.append(Block(page, begin, end))
    return TentativeMR(page, records)


def _group_by_area(tentatives: List[TentativeMR]) -> List[List[TentativeMR]]:
    """Union-find grouping of MRs whose line spans overlap considerably."""
    parent = list(range(len(tentatives)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    for i, a in enumerate(tentatives):
        for j in range(i + 1, len(tentatives)):
            b = tentatives[j]
            overlap = min(a.end, b.end) - max(a.start, b.start) + 1
            if overlap > 0 and overlap / min(a.span, b.span) > OVERLAP_FRACTION:
                union(i, j)

    groups: Dict[int, List[TentativeMR]] = defaultdict(list)
    for i, mr in enumerate(tentatives):
        groups[find(i)].append(mr)
    return list(groups.values())


def _best_of_group(
    group: List[TentativeMR], config: FeatureConfig
) -> TentativeMR:
    """Wrapper-selection rule: most records, then tightest, then widest."""

    def score(mr: TentativeMR) -> Tuple[int, float, int]:
        return (len(mr.records), -mr.internal_distance(config), mr.span)

    return max(group, key=score)


def extract_mrs(
    page: RenderedPage,
    config: FeatureConfig = DEFAULT_CONFIG,
) -> List[TentativeMR]:
    """All multi-record sections of a page, in document order.

    The returned MRs may include static repeating content and imperfect
    boundaries; §5.3-§5.5 stages clean them up.
    """
    tentatives: List[TentativeMR] = []
    for starts in _signature_occurrences(page).values():
        if len(starts) >= MIN_RECORDS:
            tentatives.extend(_runs_from_occurrences(page, starts, config))

    if not tentatives:
        return []

    best = [
        _reanchor_records(_best_of_group(group, config))
        for group in _group_by_area(tentatives)
    ]
    best.sort(key=lambda mr: mr.start)

    # Drop MRs fully contained in a larger selected MR (nested signatures).
    selected: List[TentativeMR] = []
    for mr in best:
        if any(o.start <= mr.start and mr.end <= o.end and o is not mr for o in best):
            continue
        selected.append(mr)
    return selected
