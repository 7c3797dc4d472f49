"""HTML tree construction in one pass over the markup.

:class:`TreeBuilder` is an :class:`html.parser.HTMLParser` subclass whose
callbacks build a :class:`repro.htmlmod.dom.Document` directly.  The
standard library does the lexing (attribute quoting styles, lowercased
tag and attribute names, comments, doctypes, character references, raw
``<script>``/``<style>`` text) and tolerates the malformed markup that
real result pages are full of.  The builder implements the subset of
the HTML5 tree construction rules that matters for result pages
generated around 2006:

- void elements (``<br>``, ``<img>``, ``<hr>``, ...) and XML-style
  self-closing tags (``<div/>``) never take children;
- implied end tags: an opening ``<li>`` closes an open ``<li>``, ``<tr>``
  closes ``<tr>``/``<td>``, a block element closes an open ``<p>``, etc.;
- stray end tags with no matching open element are ignored;
- an end tag for a non-innermost open element closes the intervening
  elements (simple "popping" recovery);
- missing ``<html>``/``<body>`` wrappers are synthesised;
- elements are at most :data:`MAX_TREE_DEPTH` + 1 levels deep: one
  opened deeper is flattened onto the open element at that depth.
"""

from __future__ import annotations

from html.parser import HTMLParser
from typing import List, Optional, Tuple

from repro.htmlmod.dom import Comment, Document, Element, Text

#: Elements that never have content.
VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr", "spacer",
    }
)

#: tag -> set of open tags that an occurrence of ``tag`` implicitly closes.
#: Closing is applied repeatedly while the innermost open element is in the
#: set, so nested structures unwind correctly (e.g. a new <tr> closes an
#: open <td> and then the open <tr>).
IMPLIED_CLOSERS = {
    "li": {"li"},
    "dt": {"dt", "dd"},
    "dd": {"dt", "dd"},
    "tr": {"td", "th", "tr"},
    "td": {"td", "th"},
    "th": {"td", "th"},
    "thead": {"td", "th", "tr", "tbody", "tfoot"},
    "tbody": {"td", "th", "tr", "thead", "tfoot"},
    "tfoot": {"td", "th", "tr", "thead", "tbody"},
    "option": {"option"},
    "optgroup": {"option", "optgroup"},
    "p": {"p"},
    "table": {"p"},
    "div": {"p"},
    "ul": {"p"},
    "ol": {"p"},
    "dl": {"p"},
    "h1": {"p"},
    "h2": {"p"},
    "h3": {"p"},
    "h4": {"p"},
    "h5": {"p"},
    "h6": {"p"},
    "form": {"p"},
    "hr": {"p"},
    "blockquote": {"p"},
    "pre": {"p"},
}

#: Elements whose implicit closing must not propagate past these ancestors.
#: e.g. an <li> inside a nested <ul> must not close the outer <li>, and a
#: <td> of an inner table must not close the inner <tr>.
_SCOPE_BARRIERS = frozenset(
    {
        "table", "tbody", "thead", "tfoot", "tr", "td", "th",
        "ul", "ol", "dl", "div", "body", "html", "form", "select",
    }
)

#: Start tags that stay where they are instead of forcing a <body>.
_HEAD_CONTENT = frozenset({"head", "title", "meta", "link", "base", "script", "style"})

#: Deepest tree level that takes child elements.  An element opened while
#: the open-element stack is deeper is appended to the open element at
#: this depth, not the innermost one, and still pushed, so end tags and
#: implied closers match as usual; text stays in the innermost element.
#: Blink's HTML tree builder flattens past its maximum depth the same way.
#: The deepest recursive walk downstream, layout's ``_walk_element`` ->
#: ``_walk_table_row`` -> ``_walk_children``, takes at most 3 frames per
#: level, so 256 levels stay under Python's default recursion limit of
#: 1000 with room left for the callers.
MAX_TREE_DEPTH = 256


class TreeBuilder(HTMLParser):
    """DOM construction driven straight from the ``HTMLParser`` callbacks."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Element("html")
        self.doctype = ""
        self._body: Optional[Element] = None
        self._stack: List[Element] = [self.root]

    # -- stack helpers ------------------------------------------------------
    def _apply_implied_closers(self, tag: str) -> None:
        closers = IMPLIED_CLOSERS.get(tag)
        if not closers:
            return
        stack = self._stack
        while len(stack) > 1:
            innermost = stack[-1].tag
            if innermost in closers:
                stack.pop()
                continue
            if innermost in _SCOPE_BARRIERS:
                break
            # Unwind formatting wrappers (<b>, <font>, ...) only when a
            # closable element sits below them *within the current scope*
            # — never look past a barrier, or an inner table's <tr> would
            # close the outer table's open <td>.
            closable_in_scope = False
            for index in range(len(stack) - 2, -1, -1):
                element = stack[index]
                if element.tag in closers:
                    closable_in_scope = True
                    break
                if element.tag in _SCOPE_BARRIERS:
                    break
            if closable_in_scope:
                stack.pop()
            else:
                break

    def _ensure_body_for_content(self, tag: str) -> None:
        """Route visible content under <body> even if <body> was omitted."""
        if tag in _HEAD_CONTENT or len(self._stack) > 1:
            return
        if self._body is None:
            self._body = Element("body")
            self.root.append(self._body)
        self._stack.append(self._body)

    # -- HTMLParser callbacks ---------------------------------------------
    def handle_starttag(
        self, tag: str, attrs: List[Tuple[str, Optional[str]]]
    ) -> None:
        self._start(tag, attrs, False)

    def handle_startendtag(
        self, tag: str, attrs: List[Tuple[str, Optional[str]]]
    ) -> None:
        self._start(tag, attrs, True)

    def _start(
        self, tag: str, attrs: List[Tuple[str, Optional[str]]], self_closing: bool
    ) -> None:
        values = [(name, "" if value is None else value) for name, value in attrs]
        if tag == "html":
            # Merge attributes into the synthesised root.
            for key, value in values:
                self.root.attrs.setdefault(key, value)
            return
        if tag == "body":
            if self._body is None:
                self._body = Element("body", dict(values))
                self.root.append(self._body)
            else:
                for key, value in values:
                    self._body.attrs.setdefault(key, value)
            self._stack = [self.root, self._body]
            return

        self._apply_implied_closers(tag)
        self._ensure_body_for_content(tag)
        element = Element(tag, dict(values))
        stack = self._stack
        stack[min(len(stack) - 1, MAX_TREE_DEPTH)].append(element)
        if not (self_closing or tag in VOID_ELEMENTS):
            stack.append(element)

    def handle_endtag(self, tag: str) -> None:
        if tag in VOID_ELEMENTS:
            return
        if tag in ("html", "body"):
            self._stack = [self.root] if self._body is None else [self.root, self._body]
            return
        # Find the nearest matching open element; an end tag never crosses
        # a <table> boundary (so a stray </tr> inside a nested table cannot
        # pop out to the outer table's row).
        stack = self._stack
        for depth in range(len(stack) - 1, 0, -1):
            current_tag = stack[depth].tag
            if current_tag == tag:
                del stack[depth:]
                return
            if current_tag == "table" and tag != "table":
                return
        # No matching open element: ignore the stray end tag.

    def handle_data(self, data: str) -> None:
        if not data:
            return
        if not data.strip():
            # Keep a single space between inline runs; drop pure formatting
            # whitespace at the top of the stack.
            parent = self._stack[-1]
            if parent is self.root:
                return
            if parent.children and isinstance(parent.children[-1], Text):
                return
            parent.append(Text(" "))
            return
        self._ensure_body_for_content("#text")
        self._stack[-1].append(Text(data))

    def handle_comment(self, data: str) -> None:
        parent = self._stack[-1]
        if parent is not self.root:
            parent.append(Comment(data))

    def handle_decl(self, decl: str) -> None:
        self.doctype = decl


def parse_html(markup: str) -> Document:
    """Parse an HTML string into a :class:`Document`.

    Never raises on malformed input; recovery follows the rules described
    in the module docstring.
    """
    builder = TreeBuilder()
    builder.feed(markup)
    builder.close()
    return Document(builder.root, builder.doctype)
