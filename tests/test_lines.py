"""RenderedPage DOM-mapping tests: span forests, subtrees, line ranges."""

from repro.htmlmod.dom import Element
from repro.render.lines import deepest_common_ancestor
from repro.testbed.corpus import load_engine_pages
from tests.helpers import render

PAGE = render(
    "<html><body>"
    "<h2>Header</h2>"
    "<ul><li><a href='/1'>one</a><br>snip one</li>"
    "<li><a href='/2'>two</a><br>snip two</li></ul>"
    "<p>footer</p>"
    "</body></html>"
)
# lines: 0 Header, 1 one, 2 snip one, 3 two, 4 snip two, 5 footer


class TestSpanSubtree:
    def test_whole_list(self):
        assert PAGE.span_subtree(1, 4).tag == "ul"

    def test_single_record(self):
        assert PAGE.span_subtree(1, 2).tag == "li"

    def test_cross_section_span(self):
        assert PAGE.span_subtree(0, 5).tag == "body"

    def test_single_line(self):
        subtree = PAGE.span_subtree(0, 0)
        assert subtree.tag == "h2"


class TestSpanForest:
    def test_record_forest_is_li_children(self):
        forest = PAGE.span_forest(1, 2)
        assert [e.tag for e in forest] == ["a", "br"]

    def test_section_forest_is_li_list(self):
        forest = PAGE.span_forest(1, 4)
        assert [e.tag for e in forest] == ["li", "li"]

    def test_full_page_forest(self):
        forest = PAGE.span_forest(0, 5)
        assert [e.tag for e in forest] == ["h2", "ul", "p"]

    def test_empty_for_out_of_content(self):
        page = render("<html><body></body></html>")
        assert page.span_forest(0, 0) == []


class TestDeepestCommonAncestor:
    def test_sibling_leaves(self):
        lis = PAGE.document.body.find_all("li")
        assert deepest_common_ancestor(lis).tag == "ul"

    def test_single_node_is_own_ancestor(self):
        ul = PAGE.document.body.find("ul")
        assert deepest_common_ancestor([ul]) is ul

    def test_empty_returns_none(self):
        assert deepest_common_ancestor([]) is None

    def test_text_node_with_element(self):
        li = PAGE.document.body.find("li")
        text = next(li.iter_texts())
        ancestor = deepest_common_ancestor([text, li])
        assert ancestor is li


class TestPageBasics:
    def test_len_and_getitem(self):
        assert len(PAGE) == 6
        assert PAGE[0].text == "Header"

    def test_dump_contains_lines(self):
        dump = PAGE.dump()
        assert "Header" in dump and "footer" in dump


# -- line_range_of_element --------------------------------------------------

#: every 17th engine: single- and multi-section templates alike
CORPUS_SLICE = range(0, 119, 17)

#: closing tags whose removal reshapes the parsed tree
CLOSING_TAGS = ("</div>", "</li>", "</ul>", "</table>", "</tr>", "</td>", "</p>")


def reference_line_range(page, element):
    """The definition: min and max line over every rendered subtree node."""
    leaf_line = page.leaf_line_map()
    numbers = [
        leaf_line[id(node)] for node in element.iter() if id(node) in leaf_line
    ]
    return (min(numbers), max(numbers)) if numbers else None


def assert_ranges_match_reference(page):
    elements = [
        node for node in page.document.root.iter() if isinstance(node, Element)
    ]
    assert elements
    for element in elements:
        assert page.line_range_of_element(element) == reference_line_range(
            page, element
        ), element.tag


def corpus_markup(engine_id=85):
    return load_engine_pages(engine_id).pages[0]


class TestLineRangeOfElement:
    def test_fixture_spans(self):
        ul = PAGE.span_subtree(1, 4)
        assert PAGE.line_range_of_element(ul) == (1, 4)
        assert PAGE.line_range_of_element(PAGE.document.root) == (0, 5)

    def test_element_without_rendered_leaves(self):
        page = render("<html><body><div></div><p>text</p></body></html>")
        empty = next(
            node for node in page.document.root.iter()
            if isinstance(node, Element) and node.tag == "div"
        )
        assert page.line_range_of_element(empty) is None

    def test_corpus_slice_matches_min_max_reference(self):
        for engine_id in CORPUS_SLICE:
            for markup in load_engine_pages(engine_id).pages:
                assert_ranges_match_reference(render(markup))

    def test_truncated_pages_match_reference(self):
        markup = corpus_markup()
        for cut in range(40, len(markup), 97):
            assert_ranges_match_reference(render(markup[:cut]))

    def test_pages_without_closing_tags_match_reference(self):
        for engine_id in (3, 85, 110):
            markup = corpus_markup(engine_id)
            for tag in CLOSING_TAGS:
                assert_ranges_match_reference(render(markup.replace(tag, "")))
            stripped = markup
            for tag in CLOSING_TAGS:
                stripped = stripped.replace(tag, "")
            assert_ranges_match_reference(render(stripped))

    def test_deep_div_prefix_matches_reference(self):
        for engine_id in (3, 85):
            markup = corpus_markup(engine_id)
            assert_ranges_match_reference(render("<div>" * 300 + markup))
