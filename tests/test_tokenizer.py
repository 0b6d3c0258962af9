"""Tokenization cases — tags, attributes, references, CDATA, comments,
processing instructions, declarations and the errors among them —
pinned at :func:`~repro.xmldb.parse_document`, which reads its events
from expat."""

import pytest

from repro.errors import XMLSyntaxError
from repro.xmldb import Comment, ProcessingInstruction, Text, parse_document


def root(text):
    return parse_document(text).root_element


class TestEvents:
    def test_start_end(self):
        element = root("<a></a>")
        assert (element.tag, element.attributes, element.children) == \
            ("a", [], [])

    def test_self_closing(self):
        element = root("<a/>")
        assert (element.tag, element.attributes, element.children) == \
            ("a", [], [])

    def test_attributes_in_order(self):
        attrs = root('<a x="1" y="2"/>').attributes
        assert [(a.name, a.value) for a in attrs] == [("x", "1"), ("y", "2")]

    def test_attribute_entity_expansion(self):
        assert root('<a t="a&lt;b&#33;"/>').get_attribute("t") == "a<b!"

    def test_text_between_tags(self):
        (text,) = root("<a>hi</a>").children
        assert isinstance(text, Text) and text.text == "hi"

    def test_cdata_becomes_text(self):
        (text,) = root("<a><![CDATA[<raw>&]]></a>").children
        assert isinstance(text, Text) and text.text == "<raw>&"

    def test_comment_event(self):
        (comment,) = root("<a><!--note--></a>").children
        assert isinstance(comment, Comment) and comment.text == "note"

    def test_pi_event(self):
        (pi,) = root("<a><?target some data?></a>").children
        assert isinstance(pi, ProcessingInstruction)
        assert (pi.target, pi.data) == ("target", "some data")

    def test_xml_declaration_suppressed(self):
        document = parse_document('<?xml version="1.0"?><a/>')
        assert [child.kind_name for child in document.children] == \
            ["element"]

    def test_doctype_with_internal_subset_skipped(self):
        """The subset declares no entity (one that does is refused:
        ``test_parser_differential.TestDeviations``)."""
        document = parse_document(
            '<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a/>')
        assert [child.kind_name for child in document.children] == \
            ["element"]
        assert document.node_count == 2

    def test_whitespace_in_tags(self):
        element = root('<a  x = "1"  />')
        assert element.tag == "a"
        assert [(a.name, a.value) for a in element.attributes] == \
            [("x", "1")]
        assert element.children == []

    def test_multibyte_names(self):
        assert root("<héllo/>").tag == "héllo"


class TestTokenizerErrors:
    @pytest.mark.parametrize("bad", [
        "<a", "<a x=1/>", "<a x='1' x='2'/>", "<!-- unterminated",
        "<![CDATA[", "<?pi", "<a x='<'/>", "<!DOCTYPE unterminated",
        "<a>&nope;</a>", "<1/>",
    ])
    def test_rejects(self, bad):
        with pytest.raises(XMLSyntaxError):
            parse_document(bad)

    def test_error_position_points_at_problem(self):
        with pytest.raises(XMLSyntaxError) as info:
            parse_document("<a>\n\n<b x=bad/></a>")
        assert (info.value.line, info.value.column) == (3, 6)
