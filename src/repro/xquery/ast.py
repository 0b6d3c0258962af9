"""Abstract syntax tree for the XQuery subset.

Nodes are plain dataclasses; the evaluators dispatch on type.  Every node
records its source position for error messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Iterator, Optional

# ----------------------------------------------------------------------
# prolog
# ----------------------------------------------------------------------

@dataclass
class Prolog:
    options: dict[str, str] = field(default_factory=dict)
    namespaces: dict[str, str] = field(default_factory=dict)
    functions: list["FunctionDecl"] = field(default_factory=list)
    variables: list["VariableDecl"] = field(default_factory=list)


@dataclass
class FunctionDecl:
    name: str
    params: list[str]              # parameter variable names
    param_types: list[Optional[str]]
    return_type: Optional[str]
    body: "Expr"
    pos: int = 0


@dataclass
class VariableDecl:
    name: str
    value: "Expr"
    pos: int = 0


@dataclass
class Module:
    prolog: Prolog
    body: "Expr"


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------

class Expr:
    """Base marker class for expression nodes."""

    pos: int = 0


@dataclass
class Literal(Expr):
    value: object                  # str | int | float | bool
    pos: int = 0


@dataclass
class EmptySequence(Expr):
    pos: int = 0


@dataclass
class VarRef(Expr):
    name: str
    pos: int = 0


@dataclass
class ContextItem(Expr):
    pos: int = 0


@dataclass
class Sequence(Expr):
    """Comma operator: concatenation of item sequences."""

    items: list[Expr] = field(default_factory=list)
    pos: int = 0


@dataclass
class FunctionCall(Expr):
    name: str
    args: list[Expr] = field(default_factory=list)
    pos: int = 0


@dataclass
class UnaryOp(Expr):
    op: str                        # '-' or '+'
    operand: Expr = None
    pos: int = 0


@dataclass
class BinaryOp(Expr):
    """Arithmetic / comparison / logic / set operators."""

    op: str
    left: Expr = None
    right: Expr = None
    pos: int = 0


@dataclass
class RangeExpr(Expr):
    lo: Expr = None
    hi: Expr = None
    pos: int = 0


@dataclass
class IfExpr(Expr):
    condition: Expr = None
    then: Expr = None
    orelse: Expr = None
    pos: int = 0


@dataclass
class ForClause:
    var: str
    binding: Expr
    position_var: Optional[str] = None
    pos: int = 0


@dataclass
class LetClause:
    var: str
    value: Expr = None
    pos: int = 0


@dataclass
class OrderSpec:
    key: Expr
    descending: bool = False
    pos: int = 0


@dataclass
class FLWOR(Expr):
    clauses: list = field(default_factory=list)   # For/Let in order
    where: Optional[Expr] = None
    order_by: list[OrderSpec] = field(default_factory=list)
    return_expr: Expr = None
    pos: int = 0


@dataclass
class Quantified(Expr):
    quantifier: str                # 'some' | 'every'
    var: str = ""
    binding: Expr = None
    satisfies: Expr = None
    pos: int = 0


# ----------------------------------------------------------------------
# paths
# ----------------------------------------------------------------------

#: The twelve standard axes plus the four StandOff axes of the paper.
STANDARD_AXES = frozenset({
    "child", "descendant", "self", "parent", "ancestor",
    "descendant-or-self", "ancestor-or-self", "following",
    "preceding", "following-sibling", "preceding-sibling", "attribute",
})

STANDOFF_AXES = frozenset({
    "select-narrow", "select-wide", "reject-narrow", "reject-wide",
})

ALL_AXES = STANDARD_AXES | STANDOFF_AXES


@dataclass
class NodeTest:
    """Name test (``name`` / ``*`` / ``prefix:*``) or kind test.

    ``kind`` is one of ``name``, ``node``, ``text``, ``comment``,
    ``processing-instruction``; for ``kind == 'name'``, ``name`` holds
    the QName or ``*``.
    """

    kind: str = "name"
    name: Optional[str] = None
    pos: int = 0

    def __str__(self) -> str:
        if self.kind == "name":
            return self.name or "*"
        return f"{self.kind}()"


@dataclass
class AxisStep(Expr):
    axis: str = "child"
    test: NodeTest = None
    predicates: list[Expr] = field(default_factory=list)
    pos: int = 0
    #: Set by :mod:`repro.xquery.rewrite` on a step that replaces a
    #: ``descendant-or-self::node()/…`` pair; provenance for
    #: ``Database.explain`` only, so it takes no part in equality.
    fused: bool = field(default=False, compare=False)

    @property
    def is_standoff(self) -> bool:
        return self.axis in STANDOFF_AXES


@dataclass
class FilterExpr(Expr):
    """A primary expression followed by predicates."""

    base: Expr = None
    predicates: list[Expr] = field(default_factory=list)
    pos: int = 0


@dataclass
class PathExpr(Expr):
    """``/``-separated steps; ``absolute`` anchors at the context root."""

    steps: list[Expr] = field(default_factory=list)  # AxisStep | FilterExpr
    absolute: bool = False
    pos: int = 0


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

@dataclass
class AttributeConstructor:
    name: str
    parts: list = field(default_factory=list)   # str | Expr
    pos: int = 0


@dataclass
class ElementConstructor(Expr):
    name: str = ""
    attributes: list[AttributeConstructor] = field(default_factory=list)
    content: list = field(default_factory=list)  # str | Expr | nested ctor
    pos: int = 0


@dataclass
class TextConstructor(Expr):
    parts: list = field(default_factory=list)    # str | Expr
    pos: int = 0


def walk(node) -> Iterator:
    """Pre-order walk over every AST node at or below *node* (lists of
    nodes included; strings, dicts and ``None`` are leaves)."""
    if isinstance(node, list):
        for item in node:
            yield from walk(item)
    elif is_dataclass(node):
        yield node
        for f in fields(node):
            yield from walk(getattr(node, f.name))
