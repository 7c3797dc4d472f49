"""Pathologically deep markup: the tree builder's depth bound end to end.

Every page below nests far deeper than the recursive DOM walks
downstream (layout, tag paths, serialization) could follow without the
:data:`~repro.htmlmod.parser.MAX_TREE_DEPTH` bound.  Each must parse,
render, serve and induce, and the corpus content after the deep prefix
must extract exactly as the clean page does.
"""

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mse import build_wrapper
from repro.core.verify import check_wrapper
from repro.htmlmod.dom import Element
from repro.htmlmod.parser import MAX_TREE_DEPTH, parse_html
from repro.perf.serve import compile_wrapper
from repro.perf.server import Server
from repro.render.layout import render_page
from repro.testbed.corpus import load_engine_pages

PREFIXES = {
    "div600": "<div>" * 600,
    "div5000": "<div>" * 5000,
    "table2000": "<table><tr><td>" * 2000,
    "b5000": "<b>" * 5000,
    "ulli3000": "<ul><li>" * 3000,
}


def element_depth(document):
    """Deepest element level of a parsed tree (the root is level 0)."""
    deepest = 0
    stack = [(document.root, 0)]
    while stack:
        element, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend(
            (child, depth + 1)
            for child in element.children
            if isinstance(child, Element)
        )
    return deepest


def extraction_doc(extraction):
    return json.dumps(asdict(extraction), sort_keys=True)


def served_doc(served):
    return extraction_doc(served.extraction) + json.dumps(
        served.health.to_obj(), sort_keys=True
    )


@pytest.fixture(scope="module", params=[3, 85])
def corpus_engine(request):
    """(engine pages, induced wrapper) for one single- and one multi-section engine."""
    pages = load_engine_pages(request.param)
    return pages, build_wrapper(pages.sample_set)


@pytest.mark.parametrize("name", sorted(PREFIXES))
class TestDeepPrefixes:
    def test_depth_is_bounded(self, name):
        document = parse_html(PREFIXES[name] + "<p>x</p>")
        assert element_depth(document) == MAX_TREE_DEPTH + 1

    def test_serve_extract_and_check_match_clean_page(self, name, corpus_engine):
        pages, engine = corpus_engine
        markup, query = pages.test_set[0]
        deep = PREFIXES[name] + markup
        clean = extraction_doc(engine.extract(markup, query))
        served = compile_wrapper(engine).serve(deep, query)
        assert extraction_doc(served.extraction) == clean
        assert extraction_doc(engine.extract(deep, query)) == clean
        assert 0.0 <= check_wrapper(engine, deep, query).score <= 1.0

    def test_build_wrapper_with_one_deep_sample(self, name, corpus_engine):
        pages, _ = corpus_engine
        samples = list(pages.sample_set)
        markup, query = samples[0]
        samples[0] = (PREFIXES[name] + markup, query)
        assert build_wrapper(samples).wrappers


def test_server_batch_with_one_deep_page_returns_every_page():
    pages = load_engine_pages(3)
    engine = build_wrapper(pages.sample_set)
    batch = (pages.test_set * 2)[:16]
    markup, query = batch[5]
    batch[5] = (PREFIXES["div600"] + markup, query)
    compiled = compile_wrapper(engine)
    reference = [served_doc(compiled.serve(m, q)) for m, q in batch]
    with Server([engine], jobs=2) as server:
        served = server.serve(batch)
    assert [served_doc(row[0]) for row in served] == reference


# -- fuzzed tag soup ------------------------------------------------------

_TAGS = ["div", "table", "tr", "td", "ul", "li", "p", "b", "span", "dl", "dt",
         "dd", "h2", "form", "select", "option", "tbody", "body", "head", "title"]
_OPEN = [f"<{tag}>" for tag in _TAGS] + ["<a href='/x'>"]
_CLOSE = [f"</{tag}>" for tag in _TAGS] + ["</a>"]
_VOID = ["<br>", "<img src='i.gif'>", "<hr>", "<input name='q'>"]
_SELF_CLOSING = ["<div/>", "<br/>", "<span/>"]
_STRAY = ["</tr>", "</table>", "</li>", "</html>", "</font>"]
_TEXT = ["word", " ", "\n  ", "a &amp; b", "1 < 2", "<!-- c -->"]

_token = st.sampled_from(_OPEN + _CLOSE + _VOID + _SELF_CLOSING + _STRAY + _TEXT)
#: a run of one opening tag, deep enough to cross the bound on its own
_deep_run = st.tuples(
    st.sampled_from(_OPEN), st.integers(min_value=100, max_value=700)
).map(lambda pair: pair[0] * pair[1])
_soup = st.lists(
    st.one_of(_token, _token, _token, _deep_run), max_size=40
).map("".join)


@settings(max_examples=25, deadline=2000)
@given(_soup)
def test_tag_soup_parses_and_renders_within_the_bound(markup):
    document = parse_html(markup)
    render_page(document)
    assert element_depth(document) <= MAX_TREE_DEPTH + 1
