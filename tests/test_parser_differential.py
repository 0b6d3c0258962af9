"""The expat column build against the parser it replaced.

:func:`repro.xmldb.parser.shred_xml` builds a document's columns from
expat events.  The oracle below is the pure-Python tokenizer and DOM
parser the engine used before, kept here unchanged in behaviour:
``shred(old_parse(text))`` must equal the new build array by array
(values, dtypes, dictionary, heap, element index), and wherever one
refuses a document with :class:`XMLSyntaxError`, so must the other —
except in the classes of input where the two deliberately differ.
Each of those has a named test in :class:`TestDeviations` that pins
both sides.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XMLSyntaxError
from repro.xmark import generate_xmark
from repro.xmldb import Document, parse_document, serialize, shred
from repro.xmldb.dom import Comment, Element, ProcessingInstruction
from repro.xmldb.escape import unescape
from repro.xmldb.names import is_qname
from repro.xmldb.parser import shred_xml
from test_serializer_property import elements
from test_storage_format import assert_same_arrays, stored_arrays


# ----------------------------------------------------------------------
# the oracle: the tokenizer and DOM parser before the expat build
# ----------------------------------------------------------------------

_WS = " \t\r\n"
_NAME_END = _WS + ">/=!?"


class OldTokenizer:
    """Single-pass tokenizer yielding ``("start", name, attrs,
    selfclosing)``, ``("end", name)``, ``("text", text)``,
    ``("comment", text)`` and ``("pi", target, data)`` events; XML and
    DOCTYPE declarations are skipped."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.n = len(text)

    def error(self, message: str, pos: int | None = None) -> XMLSyntaxError:
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        return XMLSyntaxError(message, line,
                              pos - self.text.rfind("\n", 0, pos))

    def _skip_ws(self) -> None:
        while self.pos < self.n and self.text[self.pos] in _WS:
            self.pos += 1

    def _expect(self, literal: str) -> None:
        if not self.text.startswith(literal, self.pos):
            raise self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def _read_until(self, terminator: str, what: str) -> str:
        idx = self.text.find(terminator, self.pos)
        if idx == -1:
            raise self.error(f"unterminated {what}")
        chunk = self.text[self.pos:idx]
        self.pos = idx + len(terminator)
        return chunk

    def _read_name(self) -> str:
        start = self.pos
        while self.pos < self.n and self.text[self.pos] not in _NAME_END:
            self.pos += 1
        name = self.text[start:self.pos]
        if not is_qname(name):
            raise self.error(f"invalid name {name!r}", start)
        return name

    def _unescape(self, raw: str) -> str:
        return unescape(raw) if "&" in raw else raw

    def _read_attributes(self) -> tuple[list[tuple[str, str]], bool]:
        attrs: list[tuple[str, str]] = []
        seen: set[str] = set()
        while True:
            self._skip_ws()
            if self.pos >= self.n:
                raise self.error("unterminated start tag")
            ch = self.text[self.pos]
            if ch == ">":
                self.pos += 1
                return attrs, False
            if ch == "/":
                self._expect("/>")
                return attrs, True
            name = self._read_name()
            if name in seen:
                raise self.error(f"duplicate attribute {name!r}")
            seen.add(name)
            self._skip_ws()
            self._expect("=")
            self._skip_ws()
            if self.pos >= self.n or self.text[self.pos] not in "\"'":
                raise self.error("attribute value must be quoted")
            quote = self.text[self.pos]
            self.pos += 1
            raw = self._read_until(quote, "attribute value")
            if "<" in raw:
                raise self.error("'<' not allowed in attribute value")
            attrs.append((name, self._unescape(raw)))

    def tokens(self):
        while self.pos < self.n:
            lt = self.text.find("<", self.pos)
            if lt == -1:
                chunk = self.text[self.pos:]
                self.pos = self.n
                if chunk:
                    yield ("text", self._unescape(chunk))
                return
            if lt > self.pos:
                chunk = self.text[self.pos:lt]
                self.pos = lt
                yield ("text", self._unescape(chunk))
            nxt = self.text[self.pos + 1] if self.pos + 1 < self.n else ""
            if nxt == "/":
                self.pos += 2
                name = self._read_name()
                self._skip_ws()
                self._expect(">")
                yield ("end", name)
            elif nxt == "?":
                self.pos += 2
                target = self._read_name()
                data = self._read_until("?>", "processing instruction")
                if target.lower() == "xml":
                    continue
                yield ("pi", target, data.strip())
            elif nxt == "!":
                if self.text.startswith("<!--", self.pos):
                    self.pos += 4
                    body = self._read_until("-->", "comment")
                    if "--" in body:
                        raise self.error("'--' not allowed inside comment")
                    yield ("comment", body)
                elif self.text.startswith("<![CDATA[", self.pos):
                    self.pos += 9
                    yield ("text", self._read_until("]]>", "CDATA section"))
                elif self.text.startswith("<!DOCTYPE", self.pos):
                    self._skip_doctype()
                else:
                    raise self.error("unrecognised markup declaration")
            else:
                self.pos += 1
                name = self._read_name()
                attrs, selfclosing = self._read_attributes()
                yield ("start", name, attrs, selfclosing)

    def _skip_doctype(self) -> None:
        self.pos += len("<!DOCTYPE")
        depth = 0
        while self.pos < self.n:
            ch = self.text[self.pos]
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == ">" and depth <= 0:
                self.pos += 1
                return
            self.pos += 1
        raise self.error("unterminated DOCTYPE declaration")


def old_parse(text: str, *, keep_whitespace_text: bool = True) -> Document:
    """The old ``parse_document``: tokenizer events -> a numbered DOM."""
    tokenizer = OldTokenizer(text)
    doc = Document()
    stack: list = [doc]
    root_seen = False
    for event in tokenizer.tokens():
        kind, top = event[0], stack[-1]
        if kind == "start":
            if top is doc and root_seen:
                raise tokenizer.error("multiple root elements")
            element = Element(event[1])
            for attr_name, attr_value in event[2]:
                element.set_attribute(attr_name, attr_value)
            top.append(element)
            root_seen = root_seen or top is doc
            if not event[3]:
                stack.append(element)
        elif kind == "end":
            if top is doc:
                raise tokenizer.error(f"closing tag </{event[1]}> without "
                                      f"open element")
            if top.tag != event[1]:
                raise tokenizer.error(f"mismatched closing tag </{event[1]}>")
            stack.pop()
        elif kind == "text":
            chunk = event[1]
            if top is doc:
                if chunk.strip():
                    raise tokenizer.error("character data outside the root "
                                          "element")
                continue
            if not keep_whitespace_text and not chunk.strip():
                continue
            top.append_text(chunk)
        elif kind == "comment":
            top.append(Comment(event[1]))
        else:
            top.append(ProcessingInstruction(event[1], event[2]))
    if len(stack) > 1:
        raise XMLSyntaxError("unclosed element(s)")
    if not root_seen:
        raise XMLSyntaxError("document has no root element")
    doc.renumber()
    return doc


# ----------------------------------------------------------------------
# the differential
# ----------------------------------------------------------------------

REFUSED = "XMLSyntaxError"


def outcome(build):
    """The arrays a build gives, or :data:`REFUSED`."""
    try:
        return stored_arrays(build())
    except XMLSyntaxError:
        return REFUSED


def old_outcome(text: str, keep: bool):
    return outcome(lambda: shred(old_parse(text, keep_whitespace_text=keep)))


def new_outcome(text: str, keep: bool):
    return outcome(lambda: shred_xml(text, keep_whitespace_text=keep))


def _not_xml_reference(match: re.Match) -> bool:
    body = match.group(1)
    code = int(body[1:], 16) if body[0] in "xX" else int(body)
    return not (code in (0x9, 0xA, 0xD) or 0x20 <= code <= 0xD7FF
                or 0xE000 <= code <= 0xFFFD or 0x10000 <= code <= 0x10FFFF)


#: The refusals only the expat build makes, by the text that shows them
#: (each class pinned by a test in :class:`TestDeviations`).
EXPAT_ONLY = {
    "attributes not separated by whitespace":
        lambda text: re.search(r"""=\s*("[^"<]*"|'[^'<]*')[^\s/>]""", text),
    "']]>' in character data": lambda text: "]]>" in text,
    "a comment ending in '-'": lambda text: "--->" in text,
    "a reference to a character outside XML's Char":
        lambda text: any(map(_not_xml_reference, re.finditer(
            r"&#(x[0-9A-Fa-f]+|[0-9]+);", text))),
}


def assert_same_outcome(text: str, keep: bool) -> None:
    old, new = old_outcome(text, keep), new_outcome(text, keep)
    if old is REFUSED or new is REFUSED:
        if old != new:
            assert old is not REFUSED, f"only expat accepts {text!r}"
            assert any(test(text) for test in EXPAT_ONLY.values()), \
                f"only expat refuses {text!r}"
        return
    assert_same_arrays(new, old)


#: What a mutation may insert: markup characters and a space.
MARKUP = list("<>&;\"'=/!?-[] ")


@st.composite
def documents(draw):
    """A serialized random element (plain or indented), maybe with a
    comment before or after it."""
    text = serialize(draw(elements()), indent=draw(st.booleans()))
    if draw(st.booleans()):
        text = "<!--p-->\n" + text + "\n<!--q-->"
    return text


@st.composite
def mutated(draw):
    """A document with one to three characters deleted, replaced or
    inserted, or cut short."""
    text = draw(documents())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        how = draw(st.sampled_from(["delete", "replace", "insert", "cut"]))
        if how == "cut":
            text = text[:at]
        elif how == "insert":
            text = text[:at] + draw(st.sampled_from(MARKUP)) + text[at:]
        else:
            new = draw(st.sampled_from(MARKUP)) if how == "replace" else ""
            text = text[:at] + new + text[at + 1:]
    return text


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(documents(), st.booleans())
    def test_documents(self, text, keep):
        assert old_outcome(text, keep) is not REFUSED
        assert_same_outcome(text, keep)

    @settings(max_examples=500, deadline=None)
    @given(mutated(), st.booleans())
    def test_malformed_mutations(self, text, keep):
        assert_same_outcome(text, keep)

    @pytest.mark.parametrize("keep", [False, True])
    def test_xmark(self, keep):
        text = generate_xmark(0.1, seed=5)
        old = old_outcome(text, keep)
        assert old is not REFUSED
        assert_same_arrays(new_outcome(text, keep), old)

    @pytest.mark.parametrize("text", [
        '<?xml version="1.0" encoding="UTF-8"?>\n<a/>',
        "<!DOCTYPE a><a/>",
        "<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>t</a>",
        "<!--c-->\n<?p d?>\n<a>x<![CDATA[<y>]]>z</a><!--e-->",
        "<a>  <b/>\n  <b>t&#10;</b> </a>",
        "<ns:a xmlns:ns='u' ns:b='1'/>",
        "<a>&lt;&amp;&gt;&quot;&apos;&#65;&#x42;&#x1F600;</a>",
        "<a b='&#9;&#10;&#13;'/>",
        "<héllo à='é'>ü</héllo>",
    ])
    @pytest.mark.parametrize("keep", [False, True])
    def test_corner_documents(self, text, keep):
        assert_same_outcome(text, keep)
        assert new_outcome(text, keep) is not REFUSED


# ----------------------------------------------------------------------
# where the two differ, by decision
# ----------------------------------------------------------------------

def build(text: str, keep: bool = True) -> Document:
    return shred_xml(text, keep_whitespace_text=keep).document


class TestDeviations:
    """Each class of input on which the expat build and the old parser
    disagree: what the old one did, and what is decided now."""

    def test_entity_declarations_are_refused(self):
        text = '<!DOCTYPE a [<!ENTITY e "v">]><a>&e;</a>'
        with pytest.raises(XMLSyntaxError, match="entity declaration"):
            shred_xml(text)
        with pytest.raises(XMLSyntaxError, match="unknown entity"):
            old_parse(text)         # skipped the subset, then failed
        unused = '<!DOCTYPE a [<!ENTITY e "v">]><a/>'
        assert old_parse(unused).root_element.tag == "a"
        with pytest.raises(XMLSyntaxError, match="entity declaration"):
            shred_xml(unused)

    def test_billion_laughs_is_refused_at_once(self):
        lol = ['<!ENTITY lol0 "lol">'] + [
            f'<!ENTITY lol{i} "{f"&lol{i - 1};" * 10}">'
            for i in range(1, 10)]
        text = f'<!DOCTYPE a [{"".join(lol)}]><a>&lol9;</a>'
        with pytest.raises(XMLSyntaxError) as info:
            shred_xml(text)
        assert "lol0" in str(info.value)
        with pytest.raises(XMLSyntaxError):
            parse_document(text)

    def test_external_entity_references_are_refused(self):
        text = '<!DOCTYPE a SYSTEM "a.dtd"><a>&ext;</a>'
        with pytest.raises(XMLSyntaxError, match="unknown entity"):
            shred_xml(text)
        with pytest.raises(XMLSyntaxError, match="unknown entity"):
            old_parse(text)

    def test_attribute_list_declarations_apply_no_defaults(self):
        text = ('<!DOCTYPE a [<!ATTLIST a d CDATA "x" i ID #IMPLIED>]>'
                '<a i=" q  r "/>')
        root = build(text).root_element
        assert [(a.name, a.value) for a in root.attributes] == \
            [("i", "q r")]           # a declared ID normalises its value
        assert [(a.name, a.value)
                for a in old_parse(text).root_element.attributes] == \
            [("i", " q  r ")]

    def test_line_ends_are_normalised(self):
        text = "<a b='1\r\n2'>x\r\ny\rz</a>"
        root = build(text).root_element
        assert root.string_value() == "x\ny\nz"
        assert root.get_attribute("b") == "1 2"
        assert old_parse(text).root_element.string_value() == "x\r\ny\rz"

    def test_attribute_whitespace_is_normalised(self):
        text = '<a b="1\n\t2" c="&#10;&#9;"/>'
        root = build(text).root_element
        assert root.get_attribute("b") == "1  2"
        assert root.get_attribute("c") == "\n\t"    # references are kept
        assert old_parse(text).root_element.get_attribute("b") == "1\n\t2"

    @pytest.mark.parametrize("text,old,new", [
        ("<a> <![CDATA[x]]></a>", "x", " x"),
        ("<a>x<![CDATA[ ]]>y</a>", "xy", "x y"),
        ("<a>\n<![CDATA[x]]>\n</a>", "x", "\nx\n"),
        ("<a><![CDATA[ ]]>\n</a>", "", ""),
    ])
    def test_whitespace_next_to_cdata_is_one_text_node(self, text, old,
                                                       new):
        """Character data and CDATA sections next to each other are one
        text node, kept or dropped as a whole; the old parser dropped
        whitespace-only pieces before merging them."""
        assert build(text, keep=False).root_element.string_value() == new
        assert old_parse(text, keep_whitespace_text=False) \
            .root_element.string_value() == old

    @pytest.mark.parametrize("text,what", [
        ("<a>\x01</a>", "a control character"),
        ("<a b='\x0b'/>", "a control character in an attribute"),
        ("<a>￾</a>", "a noncharacter"),
        ("<a>&#1;</a>", "a reference to a control character"),
        ("<a>&#xFFFF;</a>", "a reference to a noncharacter"),
        ("<a>]]></a>", "']]>' in character data"),
        ('<a x="1"y="2"/>', "attributes not separated by whitespace"),
        ("<a><!--x---></a>", "a comment ending in '-'"),
        ("<a><?xml x?></a>", "an XML declaration after the start"),
        ("<a><?XML x?></a>", "a reserved processing-instruction target"),
        ("<a/><!DOCTYPE a>", "a DOCTYPE after the root element"),
    ])
    def test_only_expat_refuses(self, text, what):
        assert old_parse(text).root_element.tag == "a", what
        with pytest.raises(XMLSyntaxError):
            shred_xml(text)

    def test_lone_surrogates_are_refused(self):
        with pytest.raises(XMLSyntaxError, match="not encodable"):
            shred_xml("<a>\ud800</a>")
        assert old_parse("<a>\ud800</a>").root_element.string_value() \
            == "\ud800"

    def test_error_positions_are_expat_s_one_based(self):
        """Line and column come from expat's error position (its column
        is 0-based; the error's is 1-based, as before)."""
        with pytest.raises(XMLSyntaxError) as info:
            shred_xml("<a>\n  <b></c>\n</a>")
        assert (info.value.line, info.value.column) == (2, 8)  # at "c"
        assert "line 2, column 8" in str(info.value)
        with pytest.raises(XMLSyntaxError) as info:
            shred_xml("<a>\n<b a:b:c='1'/></a>")
        assert (info.value.line, info.value.column) == (2, 1)
        assert "invalid name 'a:b:c'" in str(info.value)

    @pytest.mark.parametrize("text", ["<a:b:c/>", "<a b:c:d='1'/>",
                                      "<a><?p:q:r x?></a>"])
    def test_names_must_be_qnames(self, text):
        """Expat takes ``a:b:c`` (it parses without namespaces); the
        dictionary does not."""
        with pytest.raises(XMLSyntaxError, match="invalid name"):
            shred_xml(text)
        with pytest.raises(XMLSyntaxError):
            old_parse(text)


def test_deviation_classes_show_in_their_texts():
    """Each :data:`EXPAT_ONLY` test recognises the class it names."""
    examples = {
        "attributes not separated by whitespace": '<a x="1"y="2"/>',
        "']]>' in character data": "<a>]]></a>",
        "a comment ending in '-'": "<a><!--x---></a>",
        "a reference to a character outside XML's Char": "<a>&#1;</a>",
    }
    assert sorted(examples) == sorted(EXPAT_ONLY)
    for name, text in examples.items():
        assert EXPAT_ONLY[name](text), name
        assert old_outcome(text, True) is not REFUSED
        assert new_outcome(text, True) is REFUSED
    assert not any(test('<a x="1" y="&#10;">]]&gt;<!--x--></a>')
                   for test in EXPAT_ONLY.values())


def test_columns_are_frozen_and_typed():
    shredded = shred_xml("<a b='1'>t<!--c--><?p d?></a>")
    for column in (shredded.pre, shredded.size, shredded.level,
                   shredded.kind, shredded.parent, shredded.name):
        assert not column.flags.writeable
    assert shredded.kind.dtype == np.int8
    assert shredded.name.dtype == np.int32
