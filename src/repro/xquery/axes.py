"""Standard XPath axes over the DOM, plus node tests.

Each axis function yields nodes in *axis order*: document order for
forward axes, reverse document order for reverse axes (``ancestor``,
``ancestor-or-self``, ``parent``, ``preceding``, ``preceding-sibling``)
— the order in which positional predicates count.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.xmldb.dom import (
    Attr,
    Comment,
    Element,
    Node,
    ProcessingInstruction,
    Text,
)
from repro.xquery.ast import NodeTest


def axis_child(node: Node) -> Iterator[Node]:
    return iter(node.children)


def axis_descendant(node: Node) -> Iterator[Node]:
    return node.descendants()


def axis_descendant_or_self(node: Node) -> Iterator[Node]:
    return node.descendants_or_self()


def axis_self(node: Node) -> Iterator[Node]:
    yield node


def axis_parent(node: Node) -> Iterator[Node]:
    if node.parent is not None:
        yield node.parent


def axis_ancestor(node: Node) -> Iterator[Node]:
    return node.ancestors()


def axis_ancestor_or_self(node: Node) -> Iterator[Node]:
    yield node
    yield from node.ancestors()


def _siblings(node: Node) -> list[Node]:
    if node.parent is None or isinstance(node, Attr):
        return []
    return node.parent.children


def axis_following_sibling(node: Node) -> Iterator[Node]:
    siblings = _siblings(node)
    try:
        idx = next(i for i, s in enumerate(siblings) if s is node)
    except StopIteration:
        return
    yield from siblings[idx + 1:]


def axis_preceding_sibling(node: Node) -> Iterator[Node]:
    siblings = _siblings(node)
    try:
        idx = next(i for i, s in enumerate(siblings) if s is node)
    except StopIteration:
        return
    yield from reversed(siblings[:idx])


def axis_following(node: Node) -> Iterator[Node]:
    anchor = node
    while anchor is not None:
        for sibling in axis_following_sibling(anchor):
            yield from sibling.descendants_or_self()
        anchor = anchor.parent


def _reverse_subtree(node: Node) -> Iterator[Node]:
    """Subtree of *node* in reverse document order (pre descending)."""
    for child in reversed(node.children):
        yield from _reverse_subtree(child)
    yield node


def axis_preceding(node: Node) -> Iterator[Node]:
    """Preceding axis, streamed per anchor in reverse document order.

    Walking the anchor chain upward and emitting each preceding
    sibling's subtree back-to-front yields strictly descending pre
    ranks — sibling subtrees sit between the anchor and its parent, and
    every higher anchor's siblings lie wholly before them — so no
    global sort is needed; ancestors are never inside a preceding
    sibling's subtree, so no ancestor filter is needed either.
    """
    anchor: Node | None = node
    while anchor is not None:
        for sibling in axis_preceding_sibling(anchor):
            yield from _reverse_subtree(sibling)
        anchor = anchor.parent


def axis_attribute(node: Node) -> Iterator[Node]:
    if isinstance(node, Element):
        yield from node.attributes


AXIS_FUNCTIONS: dict[str, Callable[[Node], Iterator[Node]]] = {
    "child": axis_child,
    "descendant": axis_descendant,
    "descendant-or-self": axis_descendant_or_self,
    "self": axis_self,
    "parent": axis_parent,
    "ancestor": axis_ancestor,
    "ancestor-or-self": axis_ancestor_or_self,
    "following-sibling": axis_following_sibling,
    "preceding-sibling": axis_preceding_sibling,
    "following": axis_following,
    "preceding": axis_preceding,
    "attribute": axis_attribute,
}

REVERSE_AXES = frozenset({
    "parent", "ancestor", "ancestor-or-self",
    "preceding", "preceding-sibling",
})

#: XPath axes the Staircase Join family evaluates on the shredded
#: pre/size encoding, mapped to ``(staircase axis, or_self)`` — the
#: bulk evaluator routes steps over these axes through
#: :func:`repro.staircase.kernels_vec.staircase_join` (under the
#: query's ``kernel`` option) instead of the per-node DOM walk.
STAIRCASE_AXES: dict[str, tuple[str, bool]] = {
    "descendant": ("descendant", False),
    "descendant-or-self": ("descendant", True),
    "ancestor": ("ancestor", False),
    "ancestor-or-self": ("ancestor", True),
    "child": ("child", False),
    "following": ("following", False),
    "preceding": ("preceding", False),
    "following-sibling": ("following-sibling", False),
    "preceding-sibling": ("preceding-sibling", False),
}


def matches_test(node: Node, test: NodeTest, axis: str = "child") -> bool:
    """Apply a node test; the principal node kind depends on the axis
    (elements everywhere except the attribute axis)."""
    if test.kind == "node":
        return True
    if test.kind == "text":
        return isinstance(node, Text)
    if test.kind == "comment":
        return isinstance(node, Comment)
    if test.kind == "processing-instruction":
        return isinstance(node, ProcessingInstruction)
    # name test
    if axis == "attribute":
        if not isinstance(node, Attr):
            return False
        return test.name == "*" or node.name == test.name \
            or node.local_name == _local(test.name)
    if not isinstance(node, Element):
        return False
    if test.name == "*":
        return True
    return node.tag == test.name or node.local_name == _local(test.name)


def _local(name: str) -> str:
    return name.rpartition(":")[2]
