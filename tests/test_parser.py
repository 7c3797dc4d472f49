"""HTML tree construction tests, including lexing and the recovery rules."""

from repro.htmlmod.dom import Comment, Element, Text
from repro.htmlmod.parser import parse_html


def signature(markup):
    return parse_html(markup).body.tag_signature()


class TestBasicStructure:
    def test_simple_nesting(self):
        assert signature("<body><div><p>x</p></div></body>") == (
            "body",
            ("div", ("p",)),
        )

    def test_missing_html_body_synthesized(self):
        doc = parse_html("<p>hello</p>")
        assert doc.root.tag == "html"
        assert doc.body.find("p") is not None

    def test_attributes_preserved(self):
        doc = parse_html('<div class="x" id="y">t</div>')
        div = doc.body.find("div")
        assert div.get("class") == "x"
        assert div.get("id") == "y"

    def test_doctype_recorded(self):
        doc = parse_html("<!DOCTYPE html><html><body></body></html>")
        assert doc.doctype == "DOCTYPE html"

    def test_head_content_not_under_body(self):
        doc = parse_html(
            "<html><head><title>t</title></head><body><p>x</p></body></html>"
        )
        assert doc.title == "t"
        assert doc.body.find("title") is None

    def test_comment_preserved(self):
        doc = parse_html("<body><div><!--note--></div></body>")
        div = doc.body.find("div")
        assert any(isinstance(c, Comment) for c in div.children)


class TestLexing:
    """What the standard-library lexer hands the tree builder."""

    def test_start_and_end_tags(self):
        p = parse_html("<p>x</p><p>y</p>").body.child_elements()
        assert [e.tag for e in p] == ["p", "p"]
        assert [e.text_content() for e in p] == ["x", "y"]

    def test_tag_names_lowercased(self):
        div = parse_html("<DIV><A HREF='x'>t</A></DIV>").body.find("div")
        assert div is not None
        (link,) = div.child_elements()
        assert link.tag == "a"
        assert link.attrs == {"href": "x"}

    def test_mixed_case_attributes_lowercased(self):
        td = parse_html('<table><tr><td WIDTH="5" Align="left">').body.find("td")
        assert td.attrs == {"width": "5", "align": "left"}

    def test_attribute_without_value_becomes_empty_string(self):
        field = parse_html("<input disabled>").body.find("input")
        assert field.attrs == {"disabled": ""}

    def test_attribute_quoting_styles(self):
        for markup in ('<a href="x">', "<a href='x'>", "<a href=x>"):
            assert parse_html(markup).body.find("a").get("href") == "x"

    def test_self_closing_tag_takes_no_children(self):
        sig = parse_html("<div/><p>x</p>").body.tag_signature()
        assert sig == ("body", ("div",), ("p",))

    def test_entities_decoded(self):
        p = parse_html("<p>a &amp; b &lt;c&gt;</p>").body.find("p")
        assert [c.data for c in p.children] == ["a & b <c>"]

    def test_numeric_entities_decoded(self):
        p = parse_html("<p>&#65;&#x42;</p>").body.find("p")
        assert [c.data for c in p.children] == ["AB"]

    def test_comment_data_kept_verbatim(self):
        body = parse_html("<body><!-- hello --></body>").body
        assert [(type(c), c.data) for c in body.children] == [(Comment, " hello ")]

    def test_doctype_is_not_a_node(self):
        doc = parse_html("<!DOCTYPE html><html></html>")
        assert doc.doctype == "DOCTYPE html"
        assert doc.root.children == []

    def test_unclosed_tag_at_eof_keeps_text(self):
        p = parse_html("<p>text").body.find("p")
        assert [(type(c), c.data) for c in p.children] == [(Text, "text")]

    def test_empty_input(self):
        doc = parse_html("")
        assert doc.doctype == ""
        assert doc.root.children == []

    def test_plain_text_only(self):
        body = parse_html("just text").body
        assert [c.data for c in body.children] == ["just text"]

    def test_stray_angle_bracket_degrades_to_text(self):
        p = parse_html("<p>1 < 2</p>").body.find("p")
        assert p.child_elements() == []
        assert p.text_content() == "1 < 2"

    def test_script_content_not_parsed_as_tags(self):
        doc = parse_html("<script>if (a<b) { x('<p>'); }</script>")
        assert doc.root.find("p") is None
        script = doc.root.find("script")
        assert [c.data for c in script.children] == ["if (a<b) { x('<p>'); }"]


class TestVoidElements:
    def test_br_has_no_children(self):
        assert signature("<body><p>a<br>b</p></body>") == ("body", ("p", ("br",)))

    def test_img_never_contains_following_content(self):
        sig = signature("<body><img src='x'><p>t</p></body>")
        assert sig == ("body", ("img",), ("p",))

    def test_explicit_br_end_tag_ignored(self):
        sig = signature("<body><p>a<br></br>b</p></body>")
        assert sig == ("body", ("p", ("br",)))

    def test_hr_void(self):
        assert signature("<body><hr><p>x</p></body>") == ("body", ("hr",), ("p",))


class TestImpliedEndTags:
    def test_li_closes_li(self):
        sig = signature("<body><ul><li>a<li>b<li>c</ul></body>")
        assert sig == ("body", ("ul", ("li",), ("li",), ("li",)))

    def test_nested_list_li_does_not_close_outer_li(self):
        sig = signature("<body><ul><li>a<ul><li>inner</ul><li>b</ul></body>")
        assert sig == (
            "body",
            ("ul", ("li", ("ul", ("li",))), ("li",)),
        )

    def test_p_closes_p(self):
        assert signature("<body><p>a<p>b</body>") == ("body", ("p",), ("p",))

    def test_block_closes_p(self):
        assert signature("<body><p>a<div>b</div></body>") == (
            "body",
            ("p",),
            ("div",),
        )

    def test_td_closes_td(self):
        sig = signature("<body><table><tr><td>a<td>b</tr></table></body>")
        assert sig == ("body", ("table", ("tr", ("td",), ("td",))))

    def test_tr_closes_td_and_tr(self):
        sig = signature("<body><table><tr><td>a<tr><td>b</table></body>")
        assert sig == ("body", ("table", ("tr", ("td",)), ("tr", ("td",))))

    def test_dt_dd_alternate(self):
        sig = signature("<body><dl><dt>t<dd>d<dt>t2<dd>d2</dl></body>")
        assert sig == ("body", ("dl", ("dt",), ("dd",), ("dt",), ("dd",)))

    def test_option_closes_option(self):
        sig = signature("<body><select><option>a<option>b</select></body>")
        assert sig == ("body", ("select", ("option",), ("option",)))

    def test_formatting_wrapper_unwound_for_li(self):
        # <b> left open inside the first li must not block the second li.
        sig = signature("<body><ul><li><b>a<li>b</ul></body>")
        assert sig == ("body", ("ul", ("li", ("b",)), ("li",)))


class TestNestedTables:
    """The regression area: inner tables must not disturb outer ones."""

    MARKUP = (
        "<body><table><tr><td>nav</td><td>"
        "<table><tbody><tr><td>r1a</td><td>r1b</td></tr>"
        "<tr><td>r2a</td><td>r2b</td></tr></tbody></table>"
        "</td></tr></table></body>"
    )

    def test_inner_rows_stay_inside_inner_tbody(self):
        doc = parse_html(self.MARKUP)
        tbody = doc.body.find("tbody")
        rows = [c for c in tbody.children if isinstance(c, Element)]
        assert [r.tag for r in rows] == ["tr", "tr"]

    def test_outer_table_has_one_row(self):
        doc = parse_html(self.MARKUP)
        outer = doc.body.child_elements()[0]
        outer_rows = [
            c for c in outer.children if isinstance(c, Element) and c.tag == "tr"
        ]
        assert len(outer_rows) == 1

    def test_inner_td_does_not_close_inner_tr(self):
        doc = parse_html(self.MARKUP)
        inner_tr = doc.body.find("tbody").child_elements()[0]
        assert [c.tag for c in inner_tr.child_elements()] == ["td", "td"]

    def test_stray_tr_end_does_not_cross_table(self):
        # </tr> with no open tr inside the inner table must be ignored,
        # not close the outer table's row.
        doc = parse_html(
            "<body><table><tr><td><table></tr><tr><td>x</td></tr></table>"
            "</td><td>y</td></tr></table></body>"
        )
        outer = doc.body.child_elements()[0]
        outer_tr = next(c for c in outer.child_elements() if c.tag == "tr")
        tds = [c.tag for c in outer_tr.child_elements()]
        assert tds.count("td") == 2


class TestMalformedRecovery:
    def test_stray_end_tag_ignored(self):
        assert signature("<body></span><p>x</p></body>") == ("body", ("p",))

    def test_end_tag_closes_intervening_elements(self):
        sig = signature("<body><div><b><i>x</div><p>y</p></body>")
        assert sig == ("body", ("div", ("b", ("i",))), ("p",))

    def test_unclosed_elements_at_eof(self):
        sig = signature("<body><div><ul><li>a")
        assert sig == ("body", ("div", ("ul", ("li",))))

    def test_duplicate_body_merges(self):
        doc = parse_html("<body class='a'><p>x</p><body id='b'><p>y</p>")
        bodies = doc.root.find_all("body")
        assert len(bodies) == 1
        assert len(bodies[0].find_all("p")) == 2

    def test_text_between_tags_whitespace_only_collapsed(self):
        doc = parse_html("<body><ul>\n  <li>a</li>\n  <li>b</li>\n</ul></body>")
        ul = doc.body.find("ul")
        items = [c for c in ul.children if isinstance(c, Element)]
        assert [i.tag for i in items] == ["li", "li"]


class TestParserIdempotence:
    def test_reparse_of_serialized_tree_is_stable(self):
        from repro.htmlmod.serializer import serialize

        markup = (
            "<body><table><tr><td width='150'><ul><li><a href='/'>x</a>"
            "</li></ul></td><td><dl><dt><a href='/y'>y</a></dt><dd>z</dd>"
            "</dl></td></tr></table></body>"
        )
        doc1 = parse_html(markup)
        once = serialize(doc1)
        doc2 = parse_html(once)
        assert doc1.root.tag_signature() == doc2.root.tag_signature()
        assert serialize(doc2) == once
