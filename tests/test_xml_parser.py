"""Tests for the XML tokenizer, parser, DOM and serializer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XMLSyntaxError
from repro.xmldb import (
    Comment,
    Element,
    ProcessingInstruction,
    Text,
    parse_document,
    parse_fragment,
    serialize,
)
from test_serializer_property import NOT_XML


class TestParserBasics:
    def test_minimal_document(self):
        doc = parse_document("<a/>")
        assert doc.root_element.tag == "a"
        assert doc.root_element.children == []

    def test_nested_elements(self):
        doc = parse_document("<a><b><c/></b><d/></a>")
        a = doc.root_element
        assert [e.tag for e in a.elements()] == ["b", "d"]
        b = a.find("b")
        assert b.find("c") is not None

    def test_attributes(self):
        doc = parse_document('<a x="1" y="two &amp; three"/>')
        a = doc.root_element
        assert a.get_attribute("x") == "1"
        assert a.get_attribute("y") == "two & three"
        assert a.get_attribute("z") is None
        assert a.get_attribute("z", "dflt") == "dflt"

    def test_single_quoted_attributes(self):
        doc = parse_document("<a x='va\"lue'/>")
        assert doc.root_element.get_attribute("x") == 'va"lue'

    def test_text_content(self):
        doc = parse_document("<a>hello <b>world</b>!</a>")
        assert doc.root_element.string_value() == "hello world!"

    def test_entities_in_text(self):
        doc = parse_document("<a>&lt;tag&gt; &amp; &#65;&#x42;</a>")
        assert doc.root_element.string_value() == "<tag> & AB"

    def test_cdata(self):
        doc = parse_document("<a><![CDATA[<not> & markup]]></a>")
        assert doc.root_element.string_value() == "<not> & markup"

    def test_comment_and_pi(self):
        doc = parse_document("<a><!-- note --><?php echo ?></a>")
        kids = doc.root_element.children
        assert isinstance(kids[0], Comment)
        assert kids[0].text == " note "
        assert isinstance(kids[1], ProcessingInstruction)
        assert kids[1].target == "php"

    def test_xml_declaration_skipped(self):
        doc = parse_document('<?xml version="1.0" encoding="UTF-8"?>\n<a/>')
        assert doc.root_element.tag == "a"

    def test_doctype_skipped(self):
        doc = parse_document(
            '<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]>\n<a>x</a>')
        assert doc.root_element.string_value() == "x"

    def test_whitespace_stripping_default_off_in_parse(self):
        doc = parse_document("<a>\n  <b/>\n</a>",
                             keep_whitespace_text=False)
        assert all(isinstance(c, Element)
                   for c in doc.root_element.children)

    def test_adjacent_text_merged(self):
        doc = parse_document("<a>one&amp;two</a>")
        texts = [c for c in doc.root_element.children
                 if isinstance(c, Text)]
        assert len(texts) == 1
        assert texts[0].text == "one&two"


class TestWellFormedness:
    @pytest.mark.parametrize("bad", [
        "<a>",                      # unclosed
        "<a></b>",                  # mismatched
        "</a>",                     # close without open
        "<a/><b/>",                 # multiple roots
        "",                         # empty
        "text only",                # no root
        "<a x=1/>",                 # unquoted attribute
        '<a x="1" x="2"/>',         # duplicate attribute
        "<a>&undefined;</a>",       # unknown entity
        "<a>&broken</a>",           # bare ampersand
        "<1tag/>",                  # bad name
        "<a><!-- -- --></a>",       # double hyphen in comment
        '<a b="<"/>',               # raw < in attribute
        "<a><![CDATA[x]]</a>",      # unterminated CDATA
    ])
    def test_rejects(self, bad):
        with pytest.raises(XMLSyntaxError):
            parse_document(bad)

    def test_error_carries_position(self):
        with pytest.raises(XMLSyntaxError) as info:
            parse_document("<a>\n  <b></c>\n</a>")
        assert info.value.line == 2


class TestNumbering:
    def test_pre_order_ranks(self):
        doc = parse_document("<a><b><c/></b><d/></a>")
        a = doc.root_element
        b = a.find("b")
        c = b.find("c")
        d = a.find("d")
        assert doc.pre == 0
        assert (a.pre, b.pre, c.pre, d.pre) == (1, 2, 3, 4)
        assert a.size == 3
        assert b.size == 1
        assert doc.size == 4

    def test_attributes_numbered_after_element(self):
        doc = parse_document('<a x="1"><b y="2" z="3"/></a>')
        a = doc.root_element
        b = a.find("b")
        x = a.attribute_node("x")
        assert x.pre == a.pre + 1
        assert b.pre == 3
        assert b.attribute_node("y").pre == 4
        assert b.attribute_node("z").pre == 5
        # attribute containment invariant for staircase-style windows
        assert a.pre < x.pre <= a.pre + a.size

    def test_levels(self):
        doc = parse_document("<a><b><c/></b></a>")
        c = doc.root_element.find("b").find("c")
        assert doc.level == 0
        assert c.level == 3

    def test_node_by_pre_roundtrip(self):
        doc = parse_document("<a><b/>text<c><d/></c></a>")
        for node in doc.all_nodes():
            assert doc.node_by_pre(node.pre) is node

    def test_document_property(self):
        doc = parse_document("<a><b/></a>")
        b = doc.root_element.find("b")
        assert b.document is doc
        assert b.root is doc


class TestSerializer:
    def test_roundtrip_simple(self):
        text = '<a x="1"><b>hi &amp; bye</b><c/></a>'
        doc = parse_document(text)
        assert serialize(doc.root_element) == text

    def test_escapes_attribute_quotes(self):
        el = Element("a", {"x": 'va"l'})
        assert serialize(el) == '<a x="va&quot;l"/>'

    def test_indent_mode(self):
        doc = parse_document("<a><b><c/></b></a>")
        pretty = serialize(doc.root_element, indent=True)
        assert pretty == "<a>\n  <b>\n    <c/>\n  </b>\n</a>"

    def test_mixed_content_not_indented(self):
        doc = parse_document("<a>one<b/>two</a>")
        assert serialize(doc.root_element, indent=True) == "<a>one<b/>two</a>"

    @given(st.text(alphabet=st.characters(
        codec="utf-8", exclude_characters="\r" + NOT_XML), max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_text_roundtrip_property(self, text):
        el = Element("t")
        el.append_text(text)
        doc_text = serialize(el)
        reparsed = parse_document(doc_text)
        assert reparsed.root_element.string_value() == text

    @given(st.text(alphabet=st.characters(
        codec="utf-8", exclude_characters="\r\n\t" + NOT_XML),
        max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_attribute_roundtrip_property(self, value):
        el = Element("t", {"v": value})
        reparsed = parse_document(serialize(el))
        assert reparsed.root_element.get_attribute("v") == value


class TestFragments:
    def test_parse_fragment_multiple_roots(self):
        nodes = parse_fragment("<a/>text<b/>")
        assert len(nodes) == 3
        assert nodes[0].tag == "a"
        assert isinstance(nodes[1], Text)
        assert nodes[2].tag == "b"
