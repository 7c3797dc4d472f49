"""MRE (multi-record extraction) tests."""

from repro.core.mre import TentativeMR, extract_mrs
from repro.features.blocks import Block
from tests.helpers import make_records, render, simple_result_page


def page_with(n_records, query="apple"):
    html = simple_result_page(query, [("Web", make_records("Web", n_records, query))])
    return render(html)


class TestBasicExtraction:
    def test_finds_the_record_section(self):
        page = page_with(5)
        mrs = extract_mrs(page)
        assert len(mrs) >= 1
        main = max(mrs, key=lambda m: len(m.records))
        assert len(main.records) == 5

    def test_record_boundaries_at_titles(self):
        page = page_with(4)
        mrs = extract_mrs(page)
        main = max(mrs, key=lambda m: len(m.records))
        for record in main.records:
            assert "result" in page.lines[record.start].text

    def test_two_record_section_not_found(self):
        # MRE requires >= 3 records (paper §5.1); smaller sections are
        # left for DSE + mining.
        page = page_with(2)
        mrs = extract_mrs(page)
        for mr in mrs:
            for record in mr.records:
                assert "result" not in page.lines[record.start].text or len(mr.records) >= 3

    def test_empty_page(self):
        page = render("<html><body></body></html>")
        assert extract_mrs(page) == []

    def test_static_repeats_also_extracted(self):
        # A nav of >= 3 identical link lines is picked up (refinement
        # discards it later, case 5).
        page = render(
            "<html><body>"
            + "".join(f'<div><a href="/{i}">Channel {i}</a></div>' for i in range(5))
            + "</body></html>"
        )
        mrs = extract_mrs(page)
        assert len(mrs) == 1
        assert len(mrs[0].records) == 5


class TestMixedRecordLengths:
    def test_alternating_lengths_stay_one_run(self):
        # records alternate 1-line and 2-line (optional snippet)
        items = []
        for i in range(8):
            snippet = f"<br>snippet number {i}" if i % 2 else ""
            items.append(f'<li><a href="/{i}">Result title {i}</a>{snippet}</li>')
        page = render(f"<html><body><ul>{''.join(items)}</ul></body></html>")
        mrs = extract_mrs(page)
        main = max(mrs, key=lambda m: len(m.records))
        assert len(main.records) == 8


class TestTentativeMR:
    def test_span_and_block(self):
        page = page_with(3)
        mrs = extract_mrs(page)
        mr = mrs[0]
        assert mr.span == mr.end - mr.start + 1
        assert mr.block() == Block(page, mr.start, mr.end)

    def test_internal_distance_low_for_uniform_records(self):
        page = page_with(5)
        main = max(extract_mrs(page), key=lambda m: len(m.records))
        assert main.internal_distance() < 0.3


class TestReanchoring:
    def test_pattern_at_record_end_corrected(self):
        # dl layout: the repeating uniform signature is the <dd> snippet
        # line; records must still be anchored at the <dt> titles.
        items = []
        for i in range(5):
            items.append(
                f'<dt><a href="/{i}">Title {"x" * (i % 3)} {i}</a></dt>'
                f"<dd>uniform snippet text</dd>"
            )
        page = render(f"<html><body><dl>{''.join(items)}</dl></body></html>")
        mrs = extract_mrs(page)
        main = max(mrs, key=lambda m: len(m.records))
        starts = {page.lines[r.start].text for r in main.records}
        assert all("Title" in s for s in starts)
