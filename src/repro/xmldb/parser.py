"""XML parser: expat → columns, DOM on demand.

:func:`shred_xml` builds a document's shred (the layout a store file
holds) in one pass over expat events; its DOM is built from the columns
(:func:`~repro.xmldb.shred.unshred`) when a node is asked for.  Expat
decides per XML 1.0: line ends and attribute whitespace are normalised,
non-``Char`` characters and ``]]>`` in text refused, attribute-list
defaults not applied.  On top, entity declarations and undeclared
entities are refused (no expansion bombs), and names must be QNames.
"""

from __future__ import annotations

from xml.parsers import expat

import numpy as np

from repro.errors import XMLSyntaxError
from repro.xmldb.dom import (
    KIND_ATTRIBUTE,
    KIND_COMMENT,
    KIND_DOCUMENT,
    KIND_ELEMENT,
    KIND_PI,
    KIND_TEXT,
    Document,
)
from repro.xmldb.names import is_qname
from repro.xmldb.shred import ShreddedDocument, _string_heap, element_index


def shred_xml(text: str, *, uri: str = "", doc_id: int = 0,
              keep_whitespace_text: bool = True) -> ShreddedDocument:
    """The columns of the XML document *text*, built from expat events.

    A stack of open rows gives each row its parent and level and each
    element its size when it closes; attributes are numbered right
    after their element.  Adjacent character data (text, references,
    CDATA sections) is one text row.

    :param keep_whitespace_text: when False, whitespace-only text rows
        are dropped (the usual DB shredding behaviour; MonetDB/XQuery
        boundary-whitespace stripping).
    :raises XMLSyntaxError: on any well-formedness violation, with the
        1-based line and column expat reports.
    """
    kind, level, parent, name = [KIND_DOCUMENT], [0], [-1], [-1]
    sizes: list[tuple[int, int]] = []   # (element, size) as each closes
    value_pres: list[int] = []
    values: list[str] = []
    names: list[str] = []
    name_ids: dict[str, int] = {}
    stack = [0]                 # the open rows: document, then elements
    pending: list[str] = []     # character data not yet a text row
    parser = expat.ParserCreate()

    def error(message: str) -> XMLSyntaxError:
        return XMLSyntaxError(message, parser.CurrentLineNumber,
                              parser.CurrentColumnNumber + 1)

    def nid(label: str) -> int:
        found = name_ids.get(label)
        if found is None:
            if not is_qname(label):
                raise error(f"invalid name {label!r}")
            found = name_ids[label] = len(names)
            names.append(label)
        return found

    def row(row_kind: int, row_name: int, value: str | None) -> int:
        pre = len(kind)
        kind.append(row_kind)
        level.append(len(stack))
        parent.append(stack[-1])
        name.append(row_name)
        if value is not None:
            value_pres.append(pre)
            values.append(value)
        return pre

    def flush() -> None:
        data = "".join(pending)
        pending.clear()
        if keep_whitespace_text or not data.isspace():
            row(KIND_TEXT, -1, data)

    def start(tag: str, attributes: list[str]) -> None:
        if pending:
            flush()
        stack.append(row(KIND_ELEMENT, nid(tag), None))
        for i in range(0, len(attributes), 2):
            row(KIND_ATTRIBUTE, nid(attributes[i]), attributes[i + 1])

    def end(_tag: str) -> None:
        if pending:
            flush()
        pre = stack.pop()
        sizes.append((pre, len(kind) - pre - 1))

    def leaf(row_kind: int, row_name: int, value: str) -> None:
        if pending:
            flush()
        row(row_kind, row_name, value)

    def refuse(message: str):
        def handler(entity, *_args):
            raise error(message.format(entity))
        return handler

    parser.buffer_text = True
    parser.ordered_attributes = True
    parser.specified_attributes = True
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = pending.append
    parser.CommentHandler = lambda data: leaf(KIND_COMMENT, -1, data)
    parser.ProcessingInstructionHandler = \
        lambda target, data: leaf(KIND_PI, nid(target), data.strip())
    parser.EntityDeclHandler = refuse(
        "entity declaration {!r} refused (entities are not expanded)")
    parser.SkippedEntityHandler = refuse("unknown entity reference &{};")
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise XMLSyntaxError(expat.ErrorString(exc.code), exc.lineno,
                             exc.offset + 1) from None
    except UnicodeEncodeError as exc:
        raise XMLSyntaxError(
            f"character {text[exc.start]!r} at offset {exc.start} is "
            f"not encodable text") from None
    size = np.zeros(len(kind), dtype=np.int64)
    size[0] = len(kind) - 1
    if sizes:
        elements, counts = zip(*sizes)
        size[list(elements)] = counts
    kind = np.asarray(kind, dtype=np.int8)
    name = np.asarray(name, dtype=np.int32)
    return ShreddedDocument(
        pre=np.arange(len(kind), dtype=np.int64), size=size,
        level=np.asarray(level, dtype=np.int64), kind=kind,
        parent=np.asarray(parent, dtype=np.int64), name=name, names=names,
        values=_string_heap(value_pres, values),
        element_index=element_index(kind, name), uri=uri, doc_id=doc_id)


def parse_document(text: str, uri: str = "", doc_id: int = 0,
                   *, keep_whitespace_text: bool = True) -> Document:
    """Parse an XML string into a numbered :class:`Document`: the
    columns :func:`shred_xml` builds, then the DOM they encode.

    :param keep_whitespace_text: when False, whitespace-only text nodes
        are dropped (see :func:`shred_xml`).
    :raises XMLSyntaxError: on any well-formedness violation.
    """
    return shred_xml(text, uri=uri, doc_id=doc_id,
                     keep_whitespace_text=keep_whitespace_text).document


def parse_fragment(text: str) -> list:
    """Parse a sequence of top-level nodes (no single-root requirement),
    numbered under a throwaway document: what
    :meth:`~repro.xquery.engine.Database.insert_nodes` inserts."""
    wrapped = parse_document(f"<fragment-wrapper>{text}</fragment-wrapper>")
    nodes = list(wrapped.root_element.children)
    for node in nodes:
        node.parent = None
    return nodes
