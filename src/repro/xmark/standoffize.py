"""StandOff conversion of XMark documents (paper §4.6).

The paper's benchmark modifies the XMark document as follows:

* the textual contents of the auction document move to a separate file —
  the **BLOB**;
* instead of its text, every element node carries a *region* (attribute
  format, ``start``/``end``) referring into the BLOB;
* the element order is **permuted on a coarse level**, destroying some
  of the original parent-child relationships (so plain child/descendant
  steps no longer suffice and StandOff joins become necessary);
* queries replace descendant/child steps with ``select-narrow``.

Region construction guarantees proper nesting: the BLOB receives one
boundary character at every element open and close (plus the element's
text), so an element's region strictly contains exactly the regions of
its original descendants and shares no position with disjoint subtrees.
On an *unpermuted* conversion, ``select-narrow`` therefore coincides
with ``descendant`` — the equivalence the test suite checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.xmldb.dom import Document, Element, Node, Text

#: BLOB boundary characters emitted at element open/close.
OPEN_MARK = "⌈"   # left ceiling
CLOSE_MARK = "⌉"  # right ceiling


@dataclass
class StandoffBundle:
    """Result of a conversion: the annotation document plus the BLOB."""

    document: Document
    blob: str

    @property
    def blob_size(self) -> int:
        return len(self.blob)


def standoffize(source: Document, *, permute: bool = True,
                permute_depth: int = 2, permute_fraction: float = 0.5,
                seed: int = 7) -> StandoffBundle:
    """Convert an XML document to its StandOff form.

    :param source: the original document (not modified).
    :param permute: apply the coarse element permutation.
    :param permute_depth: tree level whose elements get reshuffled among
        alternative parents (2 = the children of ``site``'s sections).
    :param permute_fraction: fraction of depth-``permute_depth``
        subtrees that move to a random sibling parent.
    :param seed: permutation RNG seed.
    """
    blob_parts: list[str] = []
    cursor = 0

    def convert(node: Element) -> Element:
        nonlocal cursor
        clone = Element(node.tag)
        for attr in node.attributes:
            if attr.name not in ("start", "end"):
                clone.set_attribute(attr.name, attr.value)
        start = cursor
        blob_parts.append(OPEN_MARK)
        cursor += 1
        for child in node.children:
            if isinstance(child, Text):
                blob_parts.append(child.text)
                cursor += len(child.text)
            elif isinstance(child, Element):
                clone.append(convert(child))
        blob_parts.append(CLOSE_MARK)
        cursor += 1
        clone.set_attribute("start", str(start))
        clone.set_attribute("end", str(cursor - 1))
        return clone

    root = convert(source.root_element)
    out = Document(uri=source.uri)
    out.append(root)
    out.renumber()          # assign levels for the permutation pass
    if permute:
        # pre/size/level stay the unpermuted ranks: a store numbers
        # the document it is given (DocumentStore.add)
        _permute(out, permute_depth, permute_fraction, seed)
    return StandoffBundle(out, "".join(blob_parts))


def _permute(document: Document, depth: int, fraction: float,
             seed: int) -> None:
    """Coarsely permute: move a fraction of depth-``depth`` element
    subtrees under a different (randomly chosen) depth-``depth - 1``
    parent, and shuffle every touched parent's child order."""
    rng = random.Random(seed)
    parents = [node for node in document.descendants()
               if isinstance(node, Element) and node.level == depth]
    if len(parents) < 2:
        return
    movable: list[tuple[Element, Element]] = []
    for parent in parents:
        for child in list(parent.elements()):
            movable.append((parent, child))
    for parent, child in movable:
        if rng.random() < fraction:
            target = rng.choice(parents)
            if target is parent:
                continue
            parent.children.remove(child)
            target.append(child)
    for parent in parents:
        rng.shuffle(parent.children)


def rewrite_query_standoff(query: str) -> str:
    """Rewrite plain child/descendant path steps to ``select-narrow``.

    This is the paper's query transformation (Figure 5): ``a/b`` becomes
    ``a/select-narrow::b`` and ``a//b`` becomes ``a/select-narrow::b``
    too (containment covers any depth).  Only bare name steps are
    rewritten; attribute steps, predicates and function calls pass
    through untouched.  The rewriting is intentionally textual and
    simple — the benchmark queries are written out fully in
    :mod:`repro.xmark.queries`, so this helper is a convenience for
    user-authored queries that follow the same shape.
    """
    import re

    def repl(match: re.Match) -> str:
        slashes, name = match.group(1), match.group(2)
        return f"/select-narrow::{name}"

    return re.sub(r"(//|/)(?!@)([A-Za-z_][\w.-]*)(?!\s*\()(?!:)",
                  repl, query)
