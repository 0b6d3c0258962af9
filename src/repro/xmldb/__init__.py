"""XML substrate: parser, DOM, serializer, shredder and document store."""

from repro.xmldb.dom import (
    Attr,
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
    document_order,
)
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.serializer import serialize
from repro.xmldb.shred import ShreddedDocument, shred, shred_fragment, unshred
from repro.xmldb.store import DocumentStore, StoredDocument, extract_regions

__all__ = [
    "Attr",
    "Comment",
    "Document",
    "Element",
    "Node",
    "ProcessingInstruction",
    "Text",
    "document_order",
    "parse_document",
    "parse_fragment",
    "serialize",
    "ShreddedDocument",
    "shred",
    "shred_fragment",
    "unshred",
    "DocumentStore",
    "StoredDocument",
    "extract_regions",
]
