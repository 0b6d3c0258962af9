"""Property tests on random DOM trees: serialize/parse round-trips,
and shred/unshred (the columns are a second, lossless representation)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import storage
from repro.xmldb import (
    Comment,
    Document,
    Element,
    ProcessingInstruction,
    Text,
    parse_document,
    serialize,
)
from repro.xmldb.shred import (
    fragment_fingerprint,
    shred,
    shred_fragment,
    unshred,
)
from repro.xquery.engine import Database
from test_storage_format import (
    assert_same_arrays,
    orphan_arrays,
    stored_arrays,
)

tag_names = st.sampled_from(["a", "b", "item", "ns:c", "x-y", "_d"])
attr_names = st.sampled_from(["id", "start", "end", "v", "data-k"])


#: The characters XML 1.0 text cannot hold (outside its ``Char``
#: production): the parser refuses them, so no serialization of a
#: node holding one reparses.
NOT_XML = "".join(map(chr, [*range(0x9), 0xB, 0xC, *range(0xE, 0x20),
                            0xFFFE, 0xFFFF]))


def texts(beyond_xml, **sizes):
    return st.text(alphabet=st.characters(
        codec="utf-8",
        exclude_characters="" if beyond_xml else "\r" + NOT_XML),
        **sizes)


@st.composite
def elements(draw, depth=0, beyond_xml=False):
    """A random element subtree.  With *beyond_xml* it also holds what
    XML text cannot carry or a reparse would merge — adjacent text
    nodes, whitespace-only text, ``\\r`` and characters outside XML's
    ``Char`` in text and attribute values, processing instructions —
    which only the columns round-trip."""
    element = Element(draw(tag_names))
    for name in draw(st.lists(attr_names, max_size=3, unique=True)):
        element.set_attribute(name, draw(texts(beyond_xml, max_size=15)))
    kinds = ["text", "element", "comment"]
    if beyond_xml:
        kinds += ["space", "pi"]
    if depth < 3:
        for kind in draw(st.lists(st.sampled_from(kinds), max_size=4)):
            if kind == "text" and beyond_xml:
                element.append(Text(draw(texts(True, min_size=1,
                                               max_size=20))))
            elif kind == "text":
                element.append_text(draw(texts(False, min_size=1,
                                               max_size=20)))
            elif kind == "space":
                element.append(Text(draw(st.sampled_from(
                    [" ", "\n  ", "\t", "\r\n"]))))
            elif kind == "pi":
                element.append(ProcessingInstruction(
                    draw(st.sampled_from(["p", "xml-style"])),
                    draw(st.text(alphabet="abc =\"", max_size=10))))
            elif kind == "comment":
                body = draw(st.text(
                    alphabet="abcdef ", max_size=10))
                element.append(Comment(body))
            else:
                element.append(draw(elements(depth=depth + 1,
                                             beyond_xml=beyond_xml)))
    return element


def signature(element):
    """Structure + values, ignoring node identity."""
    return (
        element.tag,
        tuple((a.name, a.value) for a in element.attributes),
        tuple(
            signature(child) if isinstance(child, Element)
            else (type(child).__name__, child.string_value())
            for child in element.children),
    )


@given(elements())
@settings(max_examples=120, deadline=None)
def test_serialize_parse_roundtrip(element):
    text = serialize(element)
    reparsed = parse_document(text).root_element
    assert signature(reparsed) == signature(element)


@given(elements())
@settings(max_examples=60, deadline=None)
def test_indented_output_reparses_to_same_string_value(element):
    pretty = serialize(element, indent=True)
    reparsed = parse_document(pretty).root_element
    # indentation may add whitespace between element-only children, but
    # never inside mixed content, so non-space content is preserved
    assert "".join(reparsed.string_value().split()) == \
        "".join(element.string_value().split())


@given(elements())
@settings(max_examples=60, deadline=None)
def test_double_roundtrip_is_fixpoint(element):
    once = serialize(parse_document(serialize(element)).root_element)
    twice = serialize(parse_document(once).root_element)
    assert once == twice


# -- shred / unshred ----------------------------------------------------

COLUMNS = ("pre", "size", "level", "kind", "parent", "name")


def numbering(document):
    return [(n.pre, n.size, n.level) for n in document.all_nodes()]


def assert_same_document(built, original, columns):
    """*built* (from *columns*) is *original* again: content, numbering
    as a fresh ``renumber()`` assigns it, text, and its own shred."""
    assert fragment_fingerprint(built.all_nodes()) == \
        fragment_fingerprint(original.all_nodes())
    assert built.serialize() == original.serialize()
    carried = numbering(built)
    built.renumber()
    assert carried == numbering(built) == numbering(original)
    again = shred(built)
    for column in COLUMNS:
        assert np.array_equal(getattr(again, column),
                              getattr(columns, column)), column
    assert again.names == list(columns.names)
    assert [again.value_of(pre) for pre in again.pre] == \
        [columns.value_of(pre) for pre in columns.pre]


@given(elements(beyond_xml=True), st.booleans())
@settings(max_examples=120, deadline=None)
def test_unshred_inverts_shred(tmp_path_factory, element, prolog):
    orphan = shred_fragment(element)
    document = Document("p.xml", 7)
    if prolog:
        document.append(Comment("c"))
        document.append(ProcessingInstruction("p", "d"))
    document.append(element)
    columns = shred(document)
    assert_same_document(unshred(columns, uri="p.xml", doc_id=7),
                         document, columns)
    if not prolog:
        assert_same_arrays(stored_arrays(orphan), orphan_arrays(columns))

    db = Database()
    db.store.add("p.xml", document)
    path = str(tmp_path_factory.getbasetemp() / "unshred-property.repro")
    storage.save_store(path, db)
    reader = storage.StoreReader(path)
    stored = reader.document("p.xml")
    assert (stored.uri, stored.doc_id) == ("p.xml", document.doc_id)
    assert_same_document(stored, document, reader.shredded("p.xml"))
    assert_same_arrays(stored_arrays(columns),
                       stored_arrays(reader.shredded("p.xml")))
