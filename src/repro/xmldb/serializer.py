"""DOM serialization back to XML text."""

from __future__ import annotations

from repro.xmldb.dom import (
    Attr,
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
)
from repro.xmldb.escape import escape_attribute, escape_text


def serialize(node: Node, *, indent: bool = False) -> str:
    """Serialize a node (and its subtree) to XML text.

    :param indent: pretty-print with two-space indentation.  Text nodes
        suppress indentation of their element (mixed content is emitted
        verbatim to keep the string value intact).
    """
    parts: list[str] = []
    if isinstance(node, Document):
        for child in node.children:
            _write(child, parts, 0, indent)
            if indent:
                parts.append("\n")
    else:
        _write(node, parts, 0, indent)
    return "".join(parts)


def _has_element_only_content(element: Element) -> bool:
    has_child_element = False
    for child in element.children:
        if isinstance(child, Text) and child.text.strip():
            return False
        if isinstance(child, Element):
            has_child_element = True
    return has_child_element


def _write(node: Node, parts: list[str], depth: int, indent: bool) -> None:
    """Write *node*'s subtree, walking it with an explicit stack of open
    elements (their remaining children, depth, layout and end tag), so
    a document of any depth serializes."""
    stack: list = []
    _open(node, parts, depth, indent, stack)
    while stack:
        children, depth, pretty, end = stack[-1]
        for child in children:
            if not pretty:
                if _open(child, parts, 0, False, stack):
                    break
            elif not (isinstance(child, Text) and not child.text.strip()):
                parts.append("\n")
                if _open(child, parts, depth + 1, True, stack):
                    break
        else:
            stack.pop()
            parts.append(end)


def _open(node: Node, parts: list[str], depth: int, indent: bool,
          stack: list) -> bool:
    """Write *node* if it is a leaf, else its start tag, pushing its
    children onto *stack*; True when it pushed."""
    if isinstance(node, Text):
        parts.append(escape_text(node.text))
        return False
    pad = "  " * depth if indent else ""
    if isinstance(node, Element):
        attr_text = "".join(
            f' {attr.name}="{escape_attribute(attr.value)}"'
            for attr in node.attributes)
        if not node.children:
            parts.append(f"{pad}<{node.tag}{attr_text}/>")
            return False
        pretty = indent and _has_element_only_content(node)
        parts.append(f"{pad}<{node.tag}{attr_text}>")
        stack.append((iter(node.children), depth, pretty,
                      f"\n{pad}</{node.tag}>" if pretty
                      else f"</{node.tag}>"))
        return True
    if isinstance(node, Comment):
        parts.append(f"{pad}<!--{node.text}-->")
    elif isinstance(node, ProcessingInstruction):
        data = f" {node.data}" if node.data else ""
        parts.append(f"{pad}<?{node.target}{data}?>")
    else:
        parts.append(f'{node.name}="{escape_attribute(node.value)}"')
    return False
