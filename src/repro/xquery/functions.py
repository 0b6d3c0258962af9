"""Builtin function library (the ``fn:`` subset the paper's queries use).

Each builtin is a callable ``fn(ctx, args)`` where ``args`` is a list of
already-evaluated item sequences; it returns an item sequence.  Functions
are looked up by local name (prefixes stripped) and arity.

The four StandOff operators are also registered as *builtin functions*
with one and two arguments — the paper's Alternative 3 — delegating to
the same join machinery as the axis steps.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import XQueryDynamicError, XQueryStaticError, XQueryTypeError
from repro.xmldb.dom import Attr, Document, Element, Node, document_order
from repro.xmldb.store import StoredDocument
from repro.xquery.context import DynamicContext, Sequence
from repro.xquery.values import (
    atomic_to_string,
    atomize,
    atomize_single,
    effective_boolean_value,
    is_node,
    string_value,
    to_number,
)

_REGISTRY: dict[tuple[str, int], Callable] = {}
_VARARG: dict[str, Callable] = {}


def builtin(name: str, *arities: int):
    def register(fn):
        for arity in arities:
            _REGISTRY[(name, arity)] = fn
        return fn
    return register


def vararg_builtin(name: str):
    def register(fn):
        _VARARG[name] = fn
        return fn
    return register


def lookup_builtin(name: str, arity: int) -> Callable | None:
    local = name.rpartition(":")[2]
    fn = _REGISTRY.get((local, arity))
    if fn is None:
        fn = _VARARG.get(local)
    return fn


# ----------------------------------------------------------------------
# documents and nodes
# ----------------------------------------------------------------------

def doc_argument(ctx: DynamicContext, arg: Sequence
                 ) -> StoredDocument | None:
    """The stored document ``fn:doc`` names with *arg*, or ``None`` for
    the empty sequence; an unstored URI raises ``err:FODC0002``."""
    if not arg:
        return None
    uri = string_value(arg)
    if uri not in ctx.store:
        raise XQueryDynamicError(f"document {uri!r} not stored",
                                 code="err:FODC0002")
    return ctx.store.get(uri)


@builtin("doc", 1)
def fn_doc(ctx: DynamicContext, args) -> Sequence:
    stored = doc_argument(ctx, args[0])
    return [] if stored is None else [stored.document]


@builtin("root", 0)
def fn_root_0(ctx: DynamicContext, args) -> Sequence:
    item = ctx.require_focus().item
    if not is_node(item):
        raise XQueryTypeError("fn:root requires a node context item")
    return [item.root]


@builtin("root", 1)
def fn_root_1(ctx: DynamicContext, args) -> Sequence:
    if not args[0]:
        return []
    (node,) = _require_nodes(args[0], "fn:root", exactly=1)
    return [node.root]


@builtin("name", 0, 1)
def fn_name(ctx: DynamicContext, args) -> Sequence:
    node = _focus_or_arg(ctx, args, "fn:name")
    if node is None:
        return [""]
    if isinstance(node, Element):
        return [node.tag]
    if isinstance(node, Attr):
        return [node.name]
    return [""]


@builtin("local-name", 0, 1)
def fn_local_name(ctx: DynamicContext, args) -> Sequence:
    node = _focus_or_arg(ctx, args, "fn:local-name")
    if node is None:
        return [""]
    if isinstance(node, (Element, Attr)):
        return [node.local_name]
    return [""]


def _focus_or_arg(ctx, args, what) -> Node | None:
    if args:
        if not args[0]:
            return None
        (node,) = _require_nodes(args[0], what, exactly=1)
        return node
    item = ctx.require_focus().item
    if not is_node(item):
        raise XQueryTypeError(f"{what} requires a node")
    return item


def _require_nodes(seq: Sequence, what: str, exactly: int | None = None
                   ) -> list[Node]:
    if exactly is not None and len(seq) != exactly:
        raise XQueryTypeError(f"{what} requires exactly {exactly} node(s)")
    for item in seq:
        if not is_node(item):
            raise XQueryTypeError(f"{what} requires nodes, got "
                                  f"{type(item).__name__}")
    return list(seq)


# ----------------------------------------------------------------------
# sequences
# ----------------------------------------------------------------------

@builtin("count", 1)
def fn_count(ctx, args) -> Sequence:
    return [len(args[0])]


@builtin("empty", 1)
def fn_empty(ctx, args) -> Sequence:
    return [not args[0]]


@builtin("exists", 1)
def fn_exists(ctx, args) -> Sequence:
    return [bool(args[0])]


@builtin("distinct-values", 1)
def fn_distinct_values(ctx, args) -> Sequence:
    seen = set()
    out = []
    for value in atomize(args[0]):
        key = (type(value).__name__, value)
        if key not in seen:
            seen.add(key)
            out.append(value)
    return out


@builtin("reverse", 1)
def fn_reverse(ctx, args) -> Sequence:
    return list(reversed(args[0]))


@builtin("subsequence", 2, 3)
def fn_subsequence(ctx, args) -> Sequence:
    seq = args[0]
    start = round(to_number(atomize_single(args[1], "subsequence start")))
    if len(args) == 3:
        length = round(to_number(atomize_single(args[2],
                                                "subsequence length")))
        stop = start + length
    else:
        stop = len(seq) + 1
    return [item for i, item in enumerate(seq, start=1)
            if start <= i < stop]


@builtin("index-of", 2)
def fn_index_of(ctx, args) -> Sequence:
    target = atomize_single(args[1], "fn:index-of search value")
    return [i for i, value in enumerate(atomize(args[0]), start=1)
            if value == target]


@builtin("insert-before", 3)
def fn_insert_before(ctx, args) -> Sequence:
    seq, pos_seq, ins = args
    pos = int(to_number(atomize_single(pos_seq, "fn:insert-before")))
    pos = max(1, min(pos, len(seq) + 1))
    return [*seq[:pos - 1], *ins, *seq[pos - 1:]]


@builtin("remove", 2)
def fn_remove(ctx, args) -> Sequence:
    pos = int(to_number(atomize_single(args[1], "fn:remove")))
    return [item for i, item in enumerate(args[0], start=1) if i != pos]


@builtin("zero-or-one", 1)
def fn_zero_or_one(ctx, args) -> Sequence:
    if len(args[0]) > 1:
        raise XQueryDynamicError("fn:zero-or-one: more than one item",
                                 code="err:FORG0003")
    return args[0]


@builtin("exactly-one", 1)
def fn_exactly_one(ctx, args) -> Sequence:
    if len(args[0]) != 1:
        raise XQueryDynamicError("fn:exactly-one: not exactly one item",
                                 code="err:FORG0005")
    return args[0]


# ----------------------------------------------------------------------
# booleans
# ----------------------------------------------------------------------

@builtin("boolean", 1)
def fn_boolean(ctx, args) -> Sequence:
    return [effective_boolean_value(args[0])]


@builtin("not", 1)
def fn_not(ctx, args) -> Sequence:
    return [not effective_boolean_value(args[0])]


@builtin("true", 0)
def fn_true(ctx, args) -> Sequence:
    return [True]


@builtin("false", 0)
def fn_false(ctx, args) -> Sequence:
    return [False]


# ----------------------------------------------------------------------
# numbers and aggregation
# ----------------------------------------------------------------------

@builtin("number", 0, 1)
def fn_number(ctx, args) -> Sequence:
    if args:
        value = atomize_single(args[0], "fn:number")
    else:
        value = atomize_single([ctx.require_focus().item], "fn:number")
    if value is None:
        return [float("nan")]
    try:
        return [to_number(value)]
    except XQueryDynamicError:
        return [float("nan")]


@builtin("sum", 1, 2)
def fn_sum(ctx, args) -> Sequence:
    values = [to_number(v) for v in atomize(args[0])]
    if not values:
        if len(args) == 2:
            return args[1]
        return [0]
    total = sum(values)
    return [int(total) if total == int(total) else total]


@builtin("avg", 1)
def fn_avg(ctx, args) -> Sequence:
    values = [to_number(v) for v in atomize(args[0])]
    if not values:
        return []
    return [sum(values) / len(values)]


@builtin("min", 1)
def fn_min(ctx, args) -> Sequence:
    values = atomize(args[0])
    if not values:
        return []
    return [min(to_number(v) for v in values)]


@builtin("max", 1)
def fn_max(ctx, args) -> Sequence:
    values = atomize(args[0])
    if not values:
        return []
    return [max(to_number(v) for v in values)]


@builtin("abs", 1)
def fn_abs(ctx, args) -> Sequence:
    value = atomize_single(args[0], "fn:abs")
    if value is None:
        return []
    return [abs(to_number(value))]


@builtin("floor", 1)
def fn_floor(ctx, args) -> Sequence:
    value = atomize_single(args[0], "fn:floor")
    if value is None:
        return []
    return [math.floor(to_number(value))]


@builtin("ceiling", 1)
def fn_ceiling(ctx, args) -> Sequence:
    value = atomize_single(args[0], "fn:ceiling")
    if value is None:
        return []
    return [math.ceil(to_number(value))]


@builtin("round", 1)
def fn_round(ctx, args) -> Sequence:
    value = atomize_single(args[0], "fn:round")
    if value is None:
        return []
    return [math.floor(to_number(value) + 0.5)]


# ----------------------------------------------------------------------
# strings
# ----------------------------------------------------------------------

@builtin("string", 0, 1)
def fn_string(ctx, args) -> Sequence:
    if args:
        return [string_value(args[0])]
    return [string_value([ctx.require_focus().item])]


@builtin("data", 1)
def fn_data(ctx, args) -> Sequence:
    return atomize(args[0])


@builtin("string-length", 0, 1)
def fn_string_length(ctx, args) -> Sequence:
    if args:
        return [len(string_value(args[0]))]
    return [len(string_value([ctx.require_focus().item]))]


@builtin("normalize-space", 0, 1)
def fn_normalize_space(ctx, args) -> Sequence:
    if args:
        text = string_value(args[0])
    else:
        text = string_value([ctx.require_focus().item])
    return [" ".join(text.split())]


@vararg_builtin("concat")
def fn_concat(ctx, args) -> Sequence:
    if len(args) < 2:
        raise XQueryStaticError("fn:concat requires at least two arguments",
                                code="err:XPST0017")
    return ["".join(string_value(arg) for arg in args)]


@builtin("string-join", 1, 2)
def fn_string_join(ctx, args) -> Sequence:
    sep = string_value(args[1]) if len(args) == 2 else ""
    return [sep.join(atomic_to_string(v) for v in atomize(args[0]))]


@builtin("contains", 2)
def fn_contains(ctx, args) -> Sequence:
    return [string_value(args[1]) in string_value(args[0])]


@builtin("starts-with", 2)
def fn_starts_with(ctx, args) -> Sequence:
    return [string_value(args[0]).startswith(string_value(args[1]))]


@builtin("ends-with", 2)
def fn_ends_with(ctx, args) -> Sequence:
    return [string_value(args[0]).endswith(string_value(args[1]))]


@builtin("substring", 2, 3)
def fn_substring(ctx, args) -> Sequence:
    text = string_value(args[0])
    start = round(to_number(atomize_single(args[1], "substring start")))
    if len(args) == 3:
        length = round(to_number(atomize_single(args[2],
                                                "substring length")))
        stop = start + length
    else:
        stop = len(text) + 1
    return ["".join(ch for i, ch in enumerate(text, start=1)
                    if start <= i < stop)]


@builtin("substring-before", 2)
def fn_substring_before(ctx, args) -> Sequence:
    text, sep = string_value(args[0]), string_value(args[1])
    before, found, _after = text.partition(sep)
    return [before if found else ""]


@builtin("substring-after", 2)
def fn_substring_after(ctx, args) -> Sequence:
    text, sep = string_value(args[0]), string_value(args[1])
    _before, found, after = text.partition(sep)
    return [after if found else ""]


@builtin("upper-case", 1)
def fn_upper_case(ctx, args) -> Sequence:
    return [string_value(args[0]).upper()]


@builtin("lower-case", 1)
def fn_lower_case(ctx, args) -> Sequence:
    return [string_value(args[0]).lower()]


@builtin("translate", 3)
def fn_translate(ctx, args) -> Sequence:
    text = string_value(args[0])
    src = string_value(args[1])
    dst = string_value(args[2])
    table = {}
    for i, ch in enumerate(src):
        table[ch] = dst[i] if i < len(dst) else None
    return ["".join(table.get(ch, ch) for ch in text
                    if table.get(ch, ch) is not None)]


# ----------------------------------------------------------------------
# focus
# ----------------------------------------------------------------------

@builtin("position", 0)
def fn_position(ctx, args) -> Sequence:
    return [ctx.require_focus().position]


@builtin("last", 0)
def fn_last(ctx, args) -> Sequence:
    return [ctx.require_focus().size]


# ----------------------------------------------------------------------
# StandOff builtins (Alternative 3 of §3.2)
# ----------------------------------------------------------------------

def _standoff_builtin(op_name: str):
    from repro.xquery.standoff import standoff_function

    def fn(ctx: DynamicContext, args) -> Sequence:
        context_nodes = _require_nodes(args[0], op_name)
        candidates = (_require_nodes(args[1], op_name)
                      if len(args) == 2 else None)
        return standoff_function(ctx, op_name, context_nodes, candidates)

    return fn


for _op in ("select-narrow", "select-wide", "reject-narrow", "reject-wide"):
    _REGISTRY[(_op, 1)] = _standoff_builtin(_op)
    _REGISTRY[(_op, 2)] = _standoff_builtin(_op)


# Extension builtins (BLOB access, region predicates) register on import.
from repro.xquery import standoff_functions  # noqa: E402,F401  (registration)


@builtin("deep-equal", 2)
def fn_deep_equal(ctx, args) -> Sequence:
    """Pairwise deep comparison of two sequences (fn:deep-equal subset:
    atomic values compare by value with untyped coercion; nodes compare
    by name, attributes and recursively by children)."""
    from repro.xquery.values import compare_atomic

    def item_equal(a, b) -> bool:
        if is_node(a) != is_node(b):
            return False
        if not is_node(a):
            try:
                return compare_atomic(a, b, "=")
            except XQueryTypeError:
                return False
        return node_equal(a, b)

    def node_equal(a, b) -> bool:
        if a.kind != b.kind:
            return False
        if isinstance(a, Element):
            if a.tag != b.tag:
                return False
            mine = {attr.name: attr.value for attr in a.attributes}
            theirs = {attr.name: attr.value for attr in b.attributes}
            if mine != theirs:
                return False
            a_kids = [c for c in a.children]
            b_kids = [c for c in b.children]
            if len(a_kids) != len(b_kids):
                return False
            return all(node_equal(x, y) for x, y in zip(a_kids, b_kids))
        if isinstance(a, Attr):
            return a.name == b.name and a.value == b.value
        if isinstance(a, Document):
            a_kids, b_kids = a.children, b.children
            if len(a_kids) != len(b_kids):
                return False
            return all(node_equal(x, y) for x, y in zip(a_kids, b_kids))
        return a.string_value() == b.string_value()

    left, right = args
    if len(left) != len(right):
        return [False]
    return [all(item_equal(a, b) for a, b in zip(left, right))]


@builtin("serialize", 1)
def fn_serialize(ctx, args) -> Sequence:
    """Serialize a sequence to its XML text (nodes) / lexical form."""
    parts = []
    for item in args[0]:
        if is_node(item):
            parts.append(item.serialize())
        else:
            parts.append(atomic_to_string(item))
    return ["".join(parts)]
