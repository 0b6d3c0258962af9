"""A compact DOM with MonetDB-style node numbering.

Nodes carry the pre-order rank (``pre``), subtree ``size`` and tree
``level`` assigned by :meth:`Document.renumber` — the region-encoding used
by Staircase Join and as node identity in the region index.  Document
order between nodes of the same document is the ``pre`` order; across
documents, the store's ``doc_id`` order.

The DOM is mutable while a document is being built or constructed by a
query; ``renumber()`` freezes the numbering (it is re-run after any
structural change).
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import ShredError
from repro.xmldb.escape import escape_attribute, escape_text
from repro.xmldb.names import local_name, require_qname

# Node kinds, matching the shredded table encoding.
KIND_DOCUMENT = 0
KIND_ELEMENT = 1
KIND_TEXT = 2
KIND_COMMENT = 3
KIND_PI = 4
KIND_ATTRIBUTE = 5

_KIND_NAMES = {
    KIND_DOCUMENT: "document",
    KIND_ELEMENT: "element",
    KIND_TEXT: "text",
    KIND_COMMENT: "comment",
    KIND_PI: "processing-instruction",
    KIND_ATTRIBUTE: "attribute",
}


class Node:
    """Base class of all DOM nodes."""

    kind: int = -1
    __slots__ = ("parent", "pre", "size", "level")

    def __init__(self) -> None:
        self.parent: "Element | Document | None" = None
        self.pre = -1
        self.size = 0
        self.level = -1

    # -- tree access -----------------------------------------------------

    @property
    def children(self) -> list["Node"]:
        return []

    @property
    def kind_name(self) -> str:
        return _KIND_NAMES[self.kind]

    @property
    def document(self) -> "Document | None":
        """The owning document (root of the parent chain)."""
        node: Node | None = self
        while node is not None and not isinstance(node, Document):
            node = node.parent
        return node

    @property
    def root(self) -> "Node":
        """The topmost node of this fragment (document or orphan subtree)."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def ancestors(self) -> Iterator["Node"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def descendants(self) -> Iterator["Node"]:
        """The nodes below this one in pre order (attributes excluded),
        walked with an explicit stack: any depth, no recursion."""
        stack = [iter(self.children)]
        while stack:
            for child in stack[-1]:
                yield child
                if child.children:
                    stack.append(iter(child.children))
                    break
            else:
                stack.pop()

    def descendants_or_self(self) -> Iterator["Node"]:
        yield self
        yield from self.descendants()

    # -- values ----------------------------------------------------------

    def string_value(self) -> str:
        """The XPath string value (concatenated descendant text)."""
        return "".join(node.text for node in self.descendants_or_self()
                       if isinstance(node, Text))

    def serialize(self, indent: bool = False) -> str:
        from repro.xmldb.serializer import serialize

        return serialize(self, indent=indent)

    # -- document order ---------------------------------------------------

    def sort_key(self) -> tuple[int, int]:
        doc = self.document
        doc_id = doc.doc_id if doc is not None else -1
        return (doc_id, self.pre)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} pre={self.pre}>"


class Text(Node):
    kind = KIND_TEXT
    __slots__ = ("text",)

    def __init__(self, text: str):
        super().__init__()
        self.text = text

    def string_value(self) -> str:
        return self.text


class Comment(Node):
    kind = KIND_COMMENT
    __slots__ = ("text",)

    def __init__(self, text: str):
        super().__init__()
        self.text = text

    def string_value(self) -> str:
        return self.text


class ProcessingInstruction(Node):
    kind = KIND_PI
    __slots__ = ("target", "data")

    def __init__(self, target: str, data: str):
        super().__init__()
        self.target = target
        self.data = data

    def string_value(self) -> str:
        return self.data


class Attr(Node):
    """An attribute node.  Attributes are not children of their element
    (XPath data model); they are numbered after the element they belong
    to, as in the MonetDB attribute table."""

    kind = KIND_ATTRIBUTE
    __slots__ = ("name", "value")

    def __init__(self, name: str, value: str):
        super().__init__()
        self.name = require_qname(name, "attribute name")
        self.value = value

    @property
    def local_name(self) -> str:
        return local_name(self.name)

    def string_value(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"<Attr {self.name}={self.value!r}>"


class Element(Node):
    kind = KIND_ELEMENT
    __slots__ = ("tag", "attributes", "_children")

    def __init__(self, tag: str, attrs: dict[str, str] | None = None):
        super().__init__()
        self.tag = require_qname(tag, "element name")
        self.attributes: list[Attr] = []
        self._children: list[Node] = []
        if attrs:
            for name, value in attrs.items():
                self.set_attribute(name, value)

    # -- children ----------------------------------------------------------

    @property
    def children(self) -> list[Node]:
        return self._children

    def append(self, node: Node) -> Node:
        if isinstance(node, (Document, Attr)):
            raise ShredError(
                f"a {node.kind_name} node cannot be an element child")
        node.parent = self
        self._children.append(node)
        return node

    def append_text(self, text: str) -> None:
        """Append text, merging with a trailing text sibling."""
        if self._children and isinstance(self._children[-1], Text):
            self._children[-1].text += text
        elif text:
            self.append(Text(text))

    # -- attributes ---------------------------------------------------------

    def set_attribute(self, name: str, value: str) -> Attr:
        for attr in self.attributes:
            if attr.name == name:
                attr.value = value
                return attr
        attr = Attr(name, value)
        attr.parent = self
        self.attributes.append(attr)
        return attr

    def get_attribute(self, name: str, default: str | None = None
                      ) -> str | None:
        for attr in self.attributes:
            if attr.name == name:
                return attr.value
        return default

    def attribute_node(self, name: str) -> Attr | None:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        return None

    @property
    def local_name(self) -> str:
        return local_name(self.tag)

    def elements(self, tag: str | None = None) -> Iterator["Element"]:
        """Child elements, optionally filtered by tag name."""
        for child in self._children:
            if isinstance(child, Element) and (tag is None
                                               or child.tag == tag):
                yield child

    def find(self, tag: str) -> "Element | None":
        """First child element with the given tag, or None."""
        return next(self.elements(tag), None)

    def __repr__(self) -> str:
        return f"<Element {self.tag} pre={self.pre}>"


class Document(Node):
    """A document node; the root of a stored XML fragment."""

    kind = KIND_DOCUMENT
    __slots__ = ("uri", "doc_id", "_children", "_nodes_by_pre")

    def __init__(self, uri: str = "", doc_id: int = 0):
        super().__init__()
        self.uri = uri
        self.doc_id = doc_id
        self._children: list[Node] = []
        self._nodes_by_pre: list[Node] | None = None

    @property
    def children(self) -> list[Node]:
        return self._children

    def append(self, node: Node) -> Node:
        if isinstance(node, (Document, Attr)):
            raise ShredError(
                f"a {node.kind_name} node cannot be a document child")
        node.parent = self
        self._children.append(node)
        return node

    @property
    def root_element(self) -> Element:
        for child in self._children:
            if isinstance(child, Element):
                return child
        raise ShredError(f"document {self.uri!r} has no root element")

    # -- numbering -----------------------------------------------------------

    def renumber(self) -> None:
        """Assign pre-order ranks, subtree sizes and levels.

        Attributes receive pre ranks immediately after their element (the
        MonetDB attribute encoding), and are counted in the element's
        subtree size, so that ``pre(v) < pre(a) <= pre(v) + size(v)``
        holds for an attribute *a* of any element *v* or its descendants.
        """
        nodes: list[Node] = []
        _number(self, 0, nodes)
        self._nodes_by_pre = nodes

    def node_by_pre(self, pre: int) -> Node:
        """The node with the given pre rank (after :meth:`renumber`)."""
        return self.all_nodes()[pre]

    @property
    def node_count(self) -> int:
        return len(self.all_nodes())

    def all_nodes(self) -> list[Node]:
        """The nodes in pre order: the list the last :meth:`renumber`
        made (numbering first if none did).  A renumber replaces it and
        never changes it, so it stays that numbering's snapshot; callers
        must not change it either."""
        if self._nodes_by_pre is None:
            self.renumber()
        return self._nodes_by_pre

    def __repr__(self) -> str:
        return f"<Document {self.uri!r} doc_id={self.doc_id}>"


def renumber_fragment(root: Node) -> list[Node]:
    """Assign local pre ranks to an orphan fragment; nodes in pre order.

    The single numbering scheme for subtrees outside a document —
    identical to :meth:`Document.renumber` (attributes directly after
    their element, counted in the subtree size), so constructor
    numbering, transient region indexes and on-demand shredding all
    agree.  Re-running it on an already-numbered fragment is a no-op
    reassignment.
    """
    nodes: list[Node] = []
    _number(root, 0, nodes)
    return nodes


def _number(node: Node, level: int, nodes: list[Node]) -> int:
    """Number *node*'s subtree in pre order, appending its nodes to
    *nodes*; returns its size.  A module function, not a closure: a
    recursive closure is a reference cycle, which would keep every
    superseded node list alive until the cyclic collector runs."""
    node.pre = len(nodes)
    node.level = level
    nodes.append(node)
    count = 0
    if isinstance(node, Element):
        for attr in node.attributes:
            attr.pre = len(nodes)
            attr.level = level + 1
            attr.size = 0
            nodes.append(attr)
            count += 1
    for child in node.children:
        count += 1 + _number(child, level + 1, nodes)
    node.size = count
    return count


def document_order(nodes) -> list[Node]:
    """Sort nodes in document order, removing duplicates (by identity)."""
    seen: set[int] = set()
    unique: list[Node] = []
    for node in nodes:
        if id(node) not in seen:
            seen.add(id(node))
            unique.append(node)
    unique.sort(key=Node.sort_key)
    return unique


__all__ = [
    "Node", "Text", "Comment", "ProcessingInstruction", "Attr", "Element",
    "Document", "document_order", "renumber_fragment",
    "escape_text", "escape_attribute",
    "KIND_DOCUMENT", "KIND_ELEMENT", "KIND_TEXT", "KIND_COMMENT",
    "KIND_PI", "KIND_ATTRIBUTE",
]
