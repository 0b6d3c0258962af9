"""Loop-lifted (bulk) evaluator — the Pathfinder-style execution model.

Expressions evaluate to :class:`~repro.relational.sequence.IterSeq`
values (the ``iter|pos|item`` representation of §4.1) under a *loop
relation* listing the live iterations.  A ``for`` clause expands the
loop (one inner iteration per binding item), relifts the visible
variables, and unlifts the body's result back — so an axis step in the
body sees the context nodes of **all** iterations at once.

Every Staircase-axis or StandOff step runs one route, its family's
join, through one driver, :func:`fragment_step`, the way §4.4 runs a
step — one join per XML fragment of the context, the results
concatenated:

* **group** — :func:`fragment_groups` cuts the context into
  per-fragment ``(shredded, its, pres, rows)`` columns;
* **join** — one call of the family's join per fragment: a
  Loop-Lifted StandOff MergeJoin
  (:func:`repro.xquery.standoff.standoff_join`) or a loop-lifted
  Staircase Join (:func:`_staircase_join`), keyed by iteration, or by
  context row where the tree oracle collects per row (a position
  stage, and an iteration that mixes two transient fragments);
* **filter** — one *stage* per predicate, in order, on each
  fragment's CSR rows: a keep-mask, so positions renumber between
  stages (§4.1's selection on ``iter|pos|item``);
* **merge** — :func:`_merge_fragments`: one fragment stays columns,
  several concatenate per iteration in context-row order and sort into
  document order.

The stage kinds (:func:`step_route`):

* ``columns`` — a *column term*
  (:func:`repro.xquery.rewrite.column_predicate`: ``[@a op "lit"]``,
  ``[@a op 42]``, ``[@a]`` under ``not``/``and``/``or``), decided on
  the shred's dictionary-encoded attribute columns
  (:meth:`~repro.xmldb.shred.ShreddedDocument.attribute_column`) — no
  node is decoded before it survives, no interpreter runs;
* ``items`` — a position-free predicate
  (:func:`repro.xquery.rewrite.position_free`), run per item;
* ``positions`` — anything else: a columnar position mask where the
  predicate compiles (:func:`_positional_masker`), else per item.

Per item means the oracle's predicate filter over each CSR segment's
decoded nodes (:func:`_filter_segments`); a column or position stage
that might raise (a failed cast, position arithmetic past the exact
float range) runs so too, and raises as the oracle does.  The DOM walk
(:func:`_dom_step`) is left for the attribute, self and parent axes.

A node sequence in one fragment stays the join's CSR output — a
:class:`~repro.relational.sequence.NodeColumns`, ``iter|pos|item`` with
``item`` a pre rank — from one step to the next and across ``for``
boundaries.  It starts as columns too: ``fn:doc`` over one stored
document (the same one in every live iteration), the ``context_uri=``
focus and an absolute ``/`` over a column focus are the fragment's root
row, pre 0 of its shred, so a query over a store-backed document reads
its columns until it decodes a node:

* the next Staircase or StandOff join takes its ``(iter, pre)`` rows as
  its context, as they stand;
* ``for $v [at $p] in <path>`` expands the inner loop from the
  binding's CSR offsets: one inner iteration per row, ``outer_of_inner``
  its ``iter`` column, ``$v`` its ``pre`` column (:func:`~repro.
  relational.sequence.expand_loop`), ``$p`` counted along
  ``outer_of_inner``; the visible variables relift by gathering one
  segment index per inner iteration, sharing the join result;
* ``count``, ``empty`` and ``exists`` read the segment lengths.

Python nodes are decoded only at the edges — a per-item predicate, an
atomizing or constructing consumer, the query's result — once per
sequence, in one batched pass.  A variable read in a loop narrowed by
``where`` or ``if`` is restricted to it first, so the pass covers the
live iterations only.  A step over several fragments decodes its
result once, in the merge.

The evaluator is handed the *rewritten* module
(:func:`repro.xquery.rewrite.rewrite`), in which ``//t`` is the single
step ``descendant::t`` rather than the parser's literal
``descendant-or-self::node()/child::t``.

This evaluator covers the full query subset except user-defined
functions (which are the paper's *measured baseline* and therefore stay
on the iterative engine); calling one under the loop-lifted strategy
raises :class:`~repro.errors.UnsupportedFeatureError`.  ``order by``
and quantifiers are loop-lifted like everything else.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from repro.exec.cancel import check_cancelled
from repro.errors import (
    UnsupportedFeatureError,
    XQueryDynamicError,
    XQueryStaticError,
    XQueryTypeError,
)
from repro.relational.columnar import (
    ColumnarResult,
    segment_lengths,
    segment_positions,
)
from repro.relational.sequence import (
    IterSeq,
    Loop,
    NodeColumns,
    expand_loop,
    loop_positions,
    unlift,
)
from repro.xmldb.dom import (
    Attr,
    Comment,
    Element,
    Node,
    ProcessingInstruction,
    Text,
    document_order,
)
from repro.xquery import ast
from repro.xquery.axes import (
    AXIS_FUNCTIONS,
    REVERSE_AXES,
    STAIRCASE_AXES,
    matches_test,
)
from repro.xquery.context import DocumentFocus, DynamicContext
from repro.xquery.evaluator import (
    _copy_node,
    _filter_by_predicate,
    _renumber_fragment,
)
from repro.xquery.functions import (
    doc_argument,
    fn_count,
    fn_doc,
    fn_empty,
    fn_exists,
    lookup_builtin,
)
from repro.xquery.rewrite import column_predicate, position_free
from repro.xquery.standoff import standoff_join
from repro.xquery.values import (
    arithmetic,
    atomic_to_string,
    atomize,
    atomize_single,
    effective_boolean_value,
    general_compare,
    is_node,
    to_number,
    value_compare,
)


class BulkEnv:
    """Evaluation environment: dynamic context + loop + lifted variables."""

    __slots__ = ("ctx", "loop", "variables", "focus_seq")

    def __init__(self, ctx: DynamicContext, loop: Loop,
                 variables: dict[str, IterSeq],
                 focus_seq: IterSeq | None = None):
        self.ctx = ctx
        self.loop = loop
        self.variables = variables
        self.focus_seq = focus_seq

    def child(self, *, loop: Loop | None = None,
              variables: dict[str, IterSeq] | None = None,
              focus_seq: IterSeq | None = None) -> "BulkEnv":
        return BulkEnv(self.ctx,
                       self.loop if loop is None else loop,
                       self.variables if variables is None else variables,
                       self.focus_seq if focus_seq is None else focus_seq)


def evaluate_module_bulk(module: ast.Module, ctx: DynamicContext) -> list:
    """Evaluate a module loop-lifted; returns the top-level item list."""
    loop: Loop = [0]
    variables = {name: IterSeq.lifted(list(value), loop)
                 for name, value in ctx.variables.items()}
    focus_seq = None
    if isinstance(ctx.focus, DocumentFocus):
        focus_seq = IterSeq(NodeColumns.root(ctx.focus.stored.shredded,
                                             loop))
    elif ctx.focus is not None:
        focus_seq = IterSeq.lifted([ctx.focus.item], loop)
    env = BulkEnv(ctx, loop, variables, focus_seq)
    for decl in module.prolog.variables:
        value = eval_bulk(decl.value, env)
        env.variables[decl.name] = value
    if module.prolog.functions:
        # User-defined functions force the iterative evaluator (the
        # paper's UDF alternative *is* the baseline being measured).
        raise UnsupportedFeatureError(
            "user-defined functions are not supported by the loop-lifted "
            "evaluator; use strategy='udf' or 'basic'")
    result = eval_bulk(module.body, env)
    return result.items_for(0)


def eval_bulk(expr: ast.Expr, env: BulkEnv) -> IterSeq:
    method = _DISPATCH.get(type(expr))
    if method is None:
        raise UnsupportedFeatureError(
            f"{type(expr).__name__} is not supported by the loop-lifted "
            "evaluator")
    return method(expr, env)


# ----------------------------------------------------------------------
# leaves
# ----------------------------------------------------------------------

def _bulk_literal(expr: ast.Literal, env: BulkEnv) -> IterSeq:
    return IterSeq.lifted([expr.value], env.loop)


def _bulk_empty(expr, env: BulkEnv) -> IterSeq:
    return IterSeq({})


def _bulk_varref(expr: ast.VarRef, env: BulkEnv) -> IterSeq:
    try:
        value = env.variables[expr.name]
    except KeyError:
        from repro.errors import XQueryDynamicError

        raise XQueryDynamicError(f"undefined variable ${expr.name}",
                                 code="err:XPDY0002") from None
    return _live(value, env.loop)


def _live(seq: IterSeq, loop: Loop) -> IterSeq:
    """*seq* as read in *loop*.  A column-backed sequence is restricted
    to it (a few array operations), so a loop narrowed by ``where`` or
    ``if`` decodes only its live iterations; a dict is read as is."""
    if isinstance(seq.data, NodeColumns):
        return seq.restrict(loop)
    return seq


def _bulk_context_item(expr, env: BulkEnv) -> IterSeq:
    if env.focus_seq is None:
        from repro.errors import XQueryDynamicError

        raise XQueryDynamicError("the context item is undefined here",
                                 code="err:XPDY0002")
    return env.focus_seq


def _bulk_sequence(expr: ast.Sequence, env: BulkEnv) -> IterSeq:
    out = IterSeq({})
    for item in expr.items:
        out = out.concat(eval_bulk(item, env))
    return out


# ----------------------------------------------------------------------
# per-iteration scalar application
# ----------------------------------------------------------------------

def _per_iter(env: BulkEnv, arg_seqs: list[IterSeq], fn) -> IterSeq:
    """Apply ``fn(items...) -> list`` independently per live iteration."""
    out: dict[int, list] = {}
    for it in env.loop:
        result = fn(*[seq.items_for(it) for seq in arg_seqs])
        if result:
            out[it] = result
    return IterSeq(out)


def _bulk_unary(expr: ast.UnaryOp, env: BulkEnv) -> IterSeq:
    operand = eval_bulk(expr.operand, env)

    def apply(items):
        value = atomize_single(items, "unary operand")
        if value is None:
            return []
        number = to_number(value)
        if isinstance(value, int) and not isinstance(value, bool):
            number = int(value)
        return [-number if expr.op == "-" else +number]

    return _per_iter(env, [operand], apply)


def _bulk_range(expr: ast.RangeExpr, env: BulkEnv) -> IterSeq:
    lo = eval_bulk(expr.lo, env)
    hi = eval_bulk(expr.hi, env)

    def apply(lo_items, hi_items):
        a = atomize_single(lo_items, "range start")
        b = atomize_single(hi_items, "range end")
        if a is None or b is None:
            return []
        return list(range(int(to_number(a)), int(to_number(b)) + 1))

    return _per_iter(env, [lo, hi], apply)


def _bulk_if(expr: ast.IfExpr, env: BulkEnv) -> IterSeq:
    condition = eval_bulk(expr.condition, env)
    true_loop = [it for it in env.loop
                 if effective_boolean_value(condition.items_for(it))]
    taken = set(true_loop)
    false_loop = [it for it in env.loop if it not in taken]
    out: dict[int, list] = {}
    if true_loop:
        then_val = eval_bulk(expr.then, env.child(loop=true_loop))
        for it in true_loop:
            items = then_val.items_for(it)
            if items:
                out[it] = items
    if false_loop:
        else_val = eval_bulk(expr.orelse, env.child(loop=false_loop))
        for it in false_loop:
            items = else_val.items_for(it)
            if items:
                out[it] = items
    return IterSeq(out)


_GENERAL_OPS = {"=", "!=", "<", "<=", ">", ">="}
_VALUE_OPS = {"eq", "ne", "lt", "le", "gt", "ge"}
_ARITH_OPS = {"+", "-", "*", "div", "idiv", "mod"}


def _bulk_binary(expr: ast.BinaryOp, env: BulkEnv) -> IterSeq:
    op = expr.op
    left = eval_bulk(expr.left, env)
    right = eval_bulk(expr.right, env)
    if op in _GENERAL_OPS:
        return _per_iter(env, [left, right],
                         lambda a, b: [general_compare(a, b, op)])
    if op in _VALUE_OPS:
        return _per_iter(env, [left, right],
                         lambda a, b: value_compare(a, b, op))
    if op in _ARITH_OPS:
        return _per_iter(env, [left, right],
                         lambda a, b: arithmetic(a, b, op))
    if op == "and":
        return _per_iter(env, [left, right], lambda a, b: [
            effective_boolean_value(a) and effective_boolean_value(b)])
    if op == "or":
        return _per_iter(env, [left, right], lambda a, b: [
            effective_boolean_value(a) or effective_boolean_value(b)])
    if op == "union":
        def union(a, b):
            for item in (*a, *b):
                if not is_node(item):
                    raise XQueryTypeError("'union' requires nodes")
            return document_order([*a, *b])
        return _per_iter(env, [left, right], union)
    if op in ("intersect", "except"):
        def setop(a, b):
            ids = {id(n) for n in b}
            if op == "intersect":
                return document_order([n for n in a if id(n) in ids])
            return document_order([n for n in a if id(n) not in ids])
        return _per_iter(env, [left, right], setop)
    raise UnsupportedFeatureError(
        f"operator {op!r} is not supported loop-lifted")


# ----------------------------------------------------------------------
# FLWOR — the loop-lifting core
# ----------------------------------------------------------------------

def _bulk_flwor(expr: ast.FLWOR, env: BulkEnv) -> IterSeq:
    inner_env = env
    maps: list[list[int]] = []
    for clause in expr.clauses:
        if isinstance(clause, ast.LetClause):
            value = eval_bulk(clause.value, inner_env)
            variables = dict(inner_env.variables)
            variables[clause.var] = value
            inner_env = inner_env.child(variables=variables)
        else:
            binding = eval_bulk(clause.binding, inner_env)
            inner_loop, outer_of_inner, var_seq = expand_loop(
                binding, inner_env.loop)
            variables = {name: seq.relift(outer_of_inner)
                         for name, seq in inner_env.variables.items()}
            variables[clause.var] = var_seq
            if clause.position_var:
                variables[clause.position_var] = loop_positions(
                    outer_of_inner)
            focus_seq = (inner_env.focus_seq.relift(outer_of_inner)
                         if inner_env.focus_seq is not None else None)
            inner_env = BulkEnv(env.ctx, inner_loop, variables, focus_seq)
            maps.append(outer_of_inner)

    if expr.where is not None:
        condition = eval_bulk(expr.where, inner_env)
        live = [it for it in inner_env.loop
                if effective_boolean_value(condition.items_for(it))]
        inner_env = inner_env.child(loop=live)

    result = eval_bulk(expr.return_expr, inner_env)
    result = result.restrict(inner_env.loop)

    if expr.order_by and maps:
        # Loop-lifted 'order by': the FLWOR's tuple stream is the
        # innermost loop; sort its iterations by their bulk-evaluated
        # keys within each *outermost* group (= one iteration of the
        # FLWOR's own enclosing scope), then collapse directly to that
        # level — XQuery orders the whole tuple stream, so the
        # intermediate nesting order is deliberately discarded.
        ordered, group_of = _bulk_order_by(expr.order_by, inner_env, maps)
        out: dict[int, list] = {}
        for q in ordered:
            items = result.data.get(q)
            if items:
                out.setdefault(group_of[q], []).extend(items)
        return IterSeq(out)

    for outer_of_inner in reversed(maps):
        result = unlift(result, outer_of_inner)
    return result


def _bulk_order_by(specs: list[ast.OrderSpec], inner_env: BulkEnv,
                   maps: list[list[int]]
                   ) -> tuple[list[int], dict[int, int]]:
    """Sort the innermost iterations; returns ``(ordered, group_of)``
    where ``group_of[q]`` is the outermost-scope iteration that inner
    iteration *q* descends from."""
    from repro.xquery.evaluator import _OrderKey

    keys: list[IterSeq] = [eval_bulk(spec.key, inner_env)
                           for spec in specs]
    cursor = list(range(len(maps[-1])))
    for outer_map in reversed(maps):
        cursor = [outer_map[q] for q in cursor]
    group_of = dict(enumerate(cursor))

    def sort_key(q: int):
        parts: list = [group_of[q]]
        for spec, key_seq in zip(specs, keys):
            value = atomize_single(key_seq.items_for(q), "order by key")
            parts.append(_OrderKey(value, spec.descending))
        return parts

    return sorted(inner_env.loop, key=sort_key), group_of


def _bulk_quantified(expr: ast.Quantified, env: BulkEnv) -> IterSeq:
    """Loop-lifted ``some``/``every``: expand the binding into an inner
    loop, evaluate the satisfies clause for all bindings at once, and
    aggregate per outer iteration (existential / universal)."""
    binding = eval_bulk(expr.binding, env)
    inner_loop, outer_of_inner, var_seq = expand_loop(binding, env.loop)
    variables = {name: seq.relift(outer_of_inner)
                 for name, seq in env.variables.items()}
    variables[expr.var] = var_seq
    focus_seq = (env.focus_seq.relift(outer_of_inner)
                 if env.focus_seq is not None else None)
    inner_env = BulkEnv(env.ctx, inner_loop, variables, focus_seq)
    satisfied = eval_bulk(expr.satisfies, inner_env)

    is_some = expr.quantifier == "some"
    verdict = {it: not is_some for it in env.loop}
    for q in inner_loop:
        outcome = effective_boolean_value(satisfied.items_for(q))
        outer = outer_of_inner[q]
        if is_some:
            verdict[outer] = verdict[outer] or outcome
        else:
            verdict[outer] = verdict[outer] and outcome
    return IterSeq({it: [value] for it, value in verdict.items()})


# ----------------------------------------------------------------------
# function calls
# ----------------------------------------------------------------------

def _bulk_call(expr: ast.FunctionCall, env: BulkEnv) -> IterSeq:
    local = expr.name.rpartition(":")[2]
    if (local, len(expr.args)) in env.ctx.static.functions:
        raise UnsupportedFeatureError(
            f"user-defined function {expr.name} cannot be called "
            "loop-lifted")
    builtin = lookup_builtin(expr.name, len(expr.args))
    if builtin is None:
        raise XQueryStaticError(
            f"unknown function {expr.name}#{len(expr.args)}",
            code="err:XPST0017")
    arg_seqs = [eval_bulk(arg, env) for arg in expr.args]
    if builtin is fn_doc:
        return _bulk_doc(arg_seqs[0], env)
    from_length = _FROM_LENGTH.get(builtin)
    if from_length is not None and isinstance(arg_seqs[0].data, NodeColumns):
        lengths = arg_seqs[0].data.lengths(env.loop).tolist()
        return IterSeq({it: [from_length(n)]
                        for it, n in zip(env.loop, lengths)})
    return _per_iter(env, arg_seqs,
                     lambda *args: builtin(env.ctx, list(args)))


def _bulk_doc(uris: IterSeq, env: BulkEnv) -> IterSeq:
    """``fn:doc`` over the loop.  When every live iteration names the
    same stored document (or none), the result is that document's root
    row, pre 0 of its shred, as columns (:meth:`NodeColumns.root`): the
    first step joins from it and nothing builds the DOM.  Several
    documents in one loop give each iteration its document node."""
    documents = {}
    for it in env.loop:
        stored = doc_argument(env.ctx, uris.items_for(it))
        if stored is not None:
            documents[it] = stored
    distinct = {id(stored): stored for stored in documents.values()}
    if len(distinct) == 1:
        (stored,) = distinct.values()
        return IterSeq(NodeColumns.root(stored.shredded, list(documents)))
    return IterSeq({it: [stored.document]
                    for it, stored in documents.items()})


#: Builtins that read only the length of their one argument: over a
#: column-backed node sequence they are answered from its segment
#: lengths, no node decoded.
_FROM_LENGTH = {
    fn_count: lambda n: n,
    fn_empty: lambda n: n == 0,
    fn_exists: lambda n: n > 0,
}


# ----------------------------------------------------------------------
# paths
# ----------------------------------------------------------------------

def _bulk_path(expr: ast.PathExpr, env: BulkEnv) -> IterSeq:
    if expr.absolute:
        if env.focus_seq is None:
            from repro.errors import XQueryDynamicError

            raise XQueryDynamicError("'/' requires a context item",
                                     code="err:XPDY0002")
        current = _roots(env)
    else:
        current = None
    for step in expr.steps:
        current = _bulk_step(step, env, current)
    if current is None:
        return _roots(env)
    return current


def _roots(env: BulkEnv) -> IterSeq:
    """``/``: the root of each focus node.  A one-fragment column focus
    is that fragment's pre-0 row in every iteration it is not empty
    in, nothing decoded."""
    focus = env.focus_seq.data
    if isinstance(focus, NodeColumns):
        live = focus.restrict(env.loop)
        iters = live.iters[live.lengths(live.iters) > 0]
        return IterSeq(NodeColumns.root(focus.shredded, iters))
    return env.focus_seq.map_items(lambda n: n.root)


def _bulk_step(step, env: BulkEnv, context: IterSeq | None) -> IterSeq:
    if isinstance(step, ast.FilterExpr):
        if context is None:
            base = eval_bulk(step.base, env)
            return _bulk_predicates_whole(base, step.predicates, env)
        raise UnsupportedFeatureError(
            "primary expressions as non-initial path steps are not "
            "supported loop-lifted")
    assert isinstance(step, ast.AxisStep)
    if context is None:
        context = _bulk_context_item(None, env)
    route, stages = step_route(step)
    if route == "join":
        return _join_step(step, env, context, stages)
    return _dom_step(step, env, context)


def step_route(step: ast.AxisStep) -> tuple[str, list | None]:
    """How an axis step runs, decided from its shape alone
    (``Database.explain`` prints the same verdict the evaluator acts on):

    ``("join", stages)``
        a Staircase-axis or StandOff step: its family's join, then one
        stage per predicate, in order — ``("columns", term)`` for a
        column term, ``("items", predicate)`` for a position-free
        predicate, ``("positions", masker)`` for anything else, the
        masker None where the predicate does not compile;
    ``("dom", None)``
        the per-node DOM walk: the attribute, self and parent axes.
    """
    if step.axis in STAIRCASE_AXES or step.is_standoff:
        return "join", [_stage(predicate) for predicate in step.predicates]
    return "dom", None


def _stage(predicate: ast.Expr) -> tuple:
    term = column_predicate(predicate)
    if term is not None:
        return "columns", term
    if position_free(predicate):
        return "items", predicate
    return "positions", _positional_masker(predicate)


def _join_step(step: ast.AxisStep, env: BulkEnv, context: IterSeq,
               stages: list) -> IterSeq:
    """*step* as its family's join and its predicate *stages*, run by
    :func:`fragment_step`.  A tree step keys by context row when some
    stage counts positions (they count per context node).  A StandOff
    step keys by iteration; over several fragments its positions count
    over the merged sequence, so the stages from the first position
    stage on run after the merge."""
    ctx = env.ctx
    keep = _stage_filter(env, step, stages) if stages else None
    if not step.is_standoff:
        return fragment_step(
            ctx, context, env.loop, _staircase_join(env, step),
            keep=keep, by_row=any(kind == "positions" for kind, _ in stages),
            ties_by_row=True)
    result = fragment_step(ctx, context, env.loop,
                           standoff_join(ctx, step.axis, step.test),
                           keep=keep)
    if isinstance(result.data, NodeColumns):
        return result
    first = next((i for i, (kind, _plan) in enumerate(stages)
                  if kind == "positions"), len(stages))
    return _bulk_predicates_whole(result, step.predicates[first:], env)


def _dom_step(step: ast.AxisStep, env: BulkEnv,
              context: IterSeq) -> IterSeq:
    """The per-node DOM walk, one iteration at a time, exactly as the
    iterative evaluator steps."""
    axis_fn = AXIS_FUNCTIONS[step.axis]
    reverse = step.axis in REVERSE_AXES
    scopes = _PredicateScopes(env, step.predicates)
    out: dict[int, list] = {}
    for it in env.loop:
        # Cancellation checkpoint: the per-iteration DOM-walk fallback is
        # the bulk path's unbounded interpreter loop.
        check_cancelled()
        nodes = context.items_for(it)
        if not nodes:
            continue
        if not all(isinstance(node, Node) for node in nodes):
            raise XQueryTypeError("path steps require node context items")
        scope = scopes.at(it)
        collected: list[Node] = []
        for node in nodes:
            matched = [cand for cand in axis_fn(node)
                       if matches_test(cand, step.test, step.axis)]
            if reverse:
                matched.sort(key=Node.sort_key, reverse=True)
            for predicate in step.predicates:
                matched = _filter_by_predicate(matched, predicate, scope)
            collected.extend(matched)
        ordered = document_order(collected)
        if ordered:
            out[it] = ordered
    return IterSeq(out)


# ----------------------------------------------------------------------
# the step driver: group per fragment, join, merge
# ----------------------------------------------------------------------

def fragment_groups(ctx: DynamicContext, context: IterSeq,
                    loop: Loop) -> list[tuple]:
    """The context rows of *loop*, one group per XML fragment in order
    of first appearance: ``(shredded, its, pres, rows)`` columns,
    ``rows`` each row's ordinal in context order.

    A one-fragment node sequence held as columns (:class:`NodeColumns`)
    is one group as it stands, canonical (sorted by ``(iter, pre)``,
    duplicate-free).  A node list is grouped by the fragment's shredded
    columns (:meth:`DynamicContext.shredded_for`: a stored document's
    shred, or a constructed fragment's, made on demand) with its rows
    in context order, duplicates kept.  Groups are keyed on the root
    objects themselves, never on an address.
    """
    columns = context.data
    if isinstance(columns, NodeColumns):
        its, pres = columns.rows(loop)
        if not len(its):
            return []
        return [(columns.shredded, its, pres,
                 np.arange(len(its), dtype=np.int64))]
    groups: dict[Node, tuple] = {}
    row = 0
    for it in loop:
        # Cancellation checkpoint: one pass per iteration over decoded
        # context nodes.
        check_cancelled()
        for node in context.items_for(it):
            if not isinstance(node, Node):
                raise XQueryTypeError(
                    "path steps require node context items")
            root = node.root
            group = groups.get(root)
            if group is None:
                group = groups[root] = (ctx.shredded_for(root), [], [], [])
            # Read the pre *after* shredding: a constructed fragment's
            # numbering is assigned (idempotently) by the shred.
            group[1].append(it)
            group[2].append(node.pre)
            group[3].append(row)
            row += 1
    return [(shredded, *(np.asarray(column, dtype=np.int64)
                         for column in (its, pres, rows)))
            for shredded, its, pres, rows in groups.values()]


def fragment_step(ctx: DynamicContext, context: IterSeq, loop: Loop,
                  join, *, keep=None, by_row: bool = False,
                  ties_by_row: bool = False) -> IterSeq:
    """One axis step the way §4.4 runs it: the context grouped per
    fragment (:func:`fragment_groups`), one call of the family's *join*
    per fragment, each result filtered by *keep*, the results merged
    (:func:`_merge_fragments`).

    ``join(shredded, keys, pres)`` takes one fragment's context columns,
    sorted by ``(key, pre)`` and duplicate-free, and returns its
    :class:`ColumnarResult` keyed alike.  The keys are iterations, or
    the group's row indices where the tree oracle collects per context
    row: with *by_row* (position stages), and with *ties_by_row* when
    some iteration mixes two transient fragments
    (:func:`_mixes_transients`).

    ``keep(shredded, iters, result, whole)`` filters each result
    (:func:`_stage_filter`): ``iters`` are its segments' iterations,
    ``whole`` whether a segment is the sequence positions count over.
    """
    groups = fragment_groups(ctx, context, loop)
    if ties_by_row and not by_row and len(groups) > 1:
        by_row = _mixes_transients(ctx, groups)
    canonical = isinstance(context.data, NodeColumns)
    whole = by_row or len(groups) == 1
    results = []
    for shredded, its, pres, _rows in groups:
        if by_row:
            keys = np.arange(len(pres), dtype=np.int64)
        elif canonical:
            keys = its
        else:
            rows = ColumnarResult.from_pairs(its, pres)
            keys = np.repeat(rows.iters, np.diff(rows.offsets))
            pres = rows.values
        result = join(shredded, keys, pres)
        if keep is not None:
            result = keep(shredded, its[result.iters] if by_row
                          else result.iters, result, whole)
        results.append(result)
    return _merge_fragments(groups, results, by_row)


def _mixes_transients(ctx: DynamicContext, groups: list[tuple]) -> bool:
    """Whether some iteration's context touches two transient fragments
    (orphan subtrees or unstored documents).  Neither owns a
    store-unique doc id, so their nodes can tie on the ``(doc id,
    pre)`` key of document_order, and the DOM walk breaks such ties by
    its per-row collection order."""
    iters = [np.unique(its) for shredded, its, _pres, _rows in groups
             if ctx.store.by_shred(shredded) is None]
    if len(iters) < 2:
        return False
    seen = np.concatenate(iters)
    return len(np.unique(seen)) < len(seen)


def _merge_fragments(groups: list[tuple], results: list[ColumnarResult],
                     by_row: bool) -> IterSeq:
    """The per-fragment join *results* of :func:`fragment_step` as one
    sequence.

    One fragment stays columns (:class:`NodeColumns`); a row-keyed
    result maps its rows back to their iterations, which within one
    fragment is document order.  Several fragments decode into pieces
    ``(first context row, iteration, nodes)``, one per result segment:
    a context row's, or one fragment's in one iteration, keyed by its
    first row there.  The pieces concatenate per iteration in row order
    and document_order sorts them; its ties keep that order, the DOM
    walk's collection order.
    """
    if len(groups) == 1:
        (shredded, its, _pres, _rows), (result,) = groups[0], results
        if by_row:
            result = ColumnarResult.from_pairs(
                np.repeat(its[result.iters], np.diff(result.offsets)),
                result.values)
        return IterSeq(NodeColumns(shredded, result))
    pieces = []
    for (shredded, its, _pres, rows), result in zip(groups, results):
        if by_row:
            firsts, iters = rows[result.iters], its[result.iters]
        else:
            seen, first = np.unique(its, return_index=True)
            iters = result.iters
            firsts = rows[first[np.searchsorted(seen, iters)]]
        nodes = result.nodes
        if nodes is None:
            nodes = list(map(shredded.node_by_pre, result.values.tolist()))
        bounds = result.offsets.tolist()
        pieces += zip(firsts.tolist(), iters.tolist(),
                      (nodes[a:b] for a, b in zip(bounds, bounds[1:])))
    pieces.sort(key=lambda piece: piece[0])
    merged: dict[int, list] = {}
    for _row, it, nodes in pieces:
        if nodes:
            merged.setdefault(it, []).extend(nodes)
    return IterSeq({it: document_order(nodes)
                    for it, nodes in merged.items()})


#: The candidate pool of each kind test.  The tree axes never yield
#: attribute nodes (attributes are not children, and only the attribute
#: axis has them as principal nodes), so the ``node()`` pool is the
#: non-attribute rows — keeping the join in exact agreement with the
#: DOM walk.
_KIND_POOLS = {
    "node": ("non-attr",),
    "text": ("kind", Text.kind),
    "comment": ("kind", Comment.kind),
    "processing-instruction": ("kind", ProcessingInstruction.kind),
}


def _staircase_candidate_desc(test: ast.NodeTest) -> tuple:
    """The picklable descriptor of a node test's candidate pre pool
    (resolved by :func:`repro.staircase.kernels_vec.resolve_staircase_pool`,
    in the parent and in process-pool workers alike); every node test
    has one."""
    if test.kind != "name":
        return _KIND_POOLS[test.kind]
    return ("all-elements",) if test.name == "*" else ("name", test.name)


def _staircase_join(env: BulkEnv, step: ast.AxisStep):
    """The Staircase family's join of a tree *step* for
    :func:`fragment_step`: ``join(shredded, keys, pres)`` runs one
    loop-lifted Staircase Join under the query's kernel and fan-out
    settings and returns its columnar result."""
    from repro.staircase.kernels_vec import (
        resolve_staircase_pool,
        staircase_join,
    )

    axis, or_self = STAIRCASE_AXES[step.axis]
    # node() is the one test an attribute passes on a tree axis, and no
    # tree-axis pool holds attributes: an or-self step adds the
    # self-match of its attribute context rows beside the kernel's, in
    # pre order, so positions count it where the DOM walk does.
    attribute_selves = or_self and step.test.kind == "node"
    desc = _staircase_candidate_desc(step.test)
    options = env.ctx.options

    def join(shredded, keys: np.ndarray, pres: np.ndarray
             ) -> ColumnarResult:
        result = staircase_join(
            axis, shredded, (keys, pres),
            resolve_staircase_pool(shredded, desc), or_self=or_self,
            kernel=options.kernel, workers=options.workers,
            shard_min_rows=options.shard_min_rows,
            executor=options.executor, candidate_desc=desc)
        if not isinstance(result, ColumnarResult):
            result = ColumnarResult.from_dict(result)
        if attribute_selves:
            selves = shredded.kind[pres] == Attr.kind
            if selves.any():
                result = ColumnarResult.from_pairs(
                    np.concatenate((np.repeat(result.iters,
                                              np.diff(result.offsets)),
                                    keys[selves])),
                    np.concatenate((result.values, pres[selves])))
        return result

    return join


# ----------------------------------------------------------------------
# the predicate stages
# ----------------------------------------------------------------------

def _stage_filter(env: BulkEnv, step: ast.AxisStep, stages: list):
    """The ``keep`` of :func:`fragment_step` for *step*: its predicate
    *stages* in order, each a keep-mask on the CSR rows, then
    :meth:`ColumnarResult.keep_rows`, so positions renumber between
    stages.  Where a segment is not the sequence positions count over,
    it stops before the first position stage."""
    reverse = step.axis in REVERSE_AXES
    scopes = _PredicateScopes(env, step.predicates)

    def keep(shredded, iters: np.ndarray, result: ColumnarResult,
             whole: bool) -> ColumnarResult:
        for predicate, (kind, plan) in zip(step.predicates, stages):
            if not len(result.values) or kind == "positions" and not whole:
                break
            mask = nodes = None
            try:
                if kind == "columns":
                    mask = _term_mask(plan, shredded, result.values)
                elif kind == "positions" and plan is not None:
                    mask = plan(result.offsets, reverse)
            except (_Undecided, _PositionalOverflow):
                pass
            if mask is None:
                mask, nodes = _filter_segments(shredded, iters, result,
                                               predicate, scopes, reverse)
            result = result.keep_rows(mask, nodes)
        return result

    return keep


def _filter_segments(shredded, iters: np.ndarray, result: ColumnarResult,
                     predicate: ast.Expr, scopes: _PredicateScopes,
                     reverse: bool) -> tuple[np.ndarray, list]:
    """The keep-mask of *predicate* run by the oracle's per-item filter
    over each CSR segment's decoded nodes, in axis order, with the
    segment's iteration's variables in scope; and those nodes, which
    the result keeps so its survivors are not decoded again."""
    nodes = result.nodes
    if nodes is None:
        nodes = list(map(shredded.node_by_pre, result.values.tolist()))
    bounds = result.offsets.tolist()
    keep = np.zeros(len(nodes), dtype=bool)
    for it, a, b in zip(iters.tolist(), bounds, bounds[1:]):
        if a == b:
            continue
        # Cancellation checkpoint: one interpreter pass per segment.
        check_cancelled()
        segment = nodes[a:b]
        kept = {id(node) for node in _filter_by_predicate(
            segment[::-1] if reverse else segment, predicate, scopes.at(it))}
        keep[a:b] = [id(node) in kept for node in segment]
    return keep, nodes


class _Undecided(Exception):
    """Some candidate's compare would raise in the interpreter — a cast
    to a number fails, or a value comparison meets two attributes.  The
    stage goes to the per-item filter, which raises (or short-circuits
    past the compare) exactly as the oracle does."""


def _cast(text: str) -> float | None:
    try:
        return to_number(text)
    except XQueryDynamicError:
        return None


def _compare_rows(column, op: str, literal
                  ) -> tuple[np.ndarray, np.ndarray | None]:
    """Per attribute row of *column*: whether ``value op literal``
    holds, and whether the compare would raise (None: it never can).

    A string literal compares as a string: one bisect into the sorted
    distinct values turns ``op`` into an integer compare on the codes.
    A numeric literal casts each distinct value once
    (:func:`repro.xquery.values.to_number`, cached on the column).
    """
    codes = column.codes
    if isinstance(literal, str):
        lo = bisect_left(column.distinct, literal)
        hi = bisect_right(column.distinct, literal)
        if op == "=":
            return (codes >= lo) & (codes < hi), None
        if op == "!=":
            return (codes < lo) | (codes >= hi), None
        if op == "<":
            return codes < lo, None
        if op == "<=":
            return codes < hi, None
        if op == ">":
            return codes >= hi, None
        return codes >= lo, None
    numbers, failed = column.numbers(_cast)
    return _NUMPY_CMP[op](numbers, literal)[codes], failed[codes]


def _any_in_spans(rows: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> np.ndarray:
    """Per span ``[lo, hi)``: whether any of its *rows* is set."""
    counts = np.concatenate((np.zeros(1, dtype=np.int64),
                             np.cumsum(rows, dtype=np.int64)))
    return counts[hi] > counts[lo]


def _term_mask(term: tuple, shredded, pres: np.ndarray) -> np.ndarray:
    """Evaluate one column term (:func:`repro.xquery.rewrite.
    column_predicate`) for every candidate pre at once; raises
    :class:`_Undecided` where the interpreter might raise instead."""
    kind = term[0]
    if kind == "not":
        return ~_term_mask(term[1], shredded, pres)
    if kind in ("and", "or"):
        left = _term_mask(term[1], shredded, pres)
        right = _term_mask(term[2], shredded, pres)
        return left & right if kind == "and" else left | right
    column = shredded.attribute_column(term[1])
    lo, hi = column.spans(pres)
    if kind == "exists":
        return hi > lo
    _kind, _name, op, literal, single = term
    if single and np.any(hi - lo > 1):
        raise _Undecided
    truth, raises = _compare_rows(column, op, literal)
    if raises is not None and np.any(_any_in_spans(raises, lo, hi)):
        raise _Undecided
    # A general comparison is existential over the matching attributes.
    return _any_in_spans(truth, lo, hi)


# ----------------------------------------------------------------------
# vectorized positional predicates
# ----------------------------------------------------------------------

#: Magnitude bound on compiled positional arithmetic.  The pipeline
#: evaluates in float64; below this bound every intermediate (including
#: the products inside the ``mod`` identity) is an exactly-representable
#: integer, so the compiled chain agrees bit-for-bit with the
#: interpreted integer semantics of
#: :func:`repro.xquery.values.arithmetic`.  Larger literals refuse to
#: compile and larger runtime intermediates send their stage to the
#: per-item filter.
_POSITIONAL_EXACT_BOUND = float(2 ** 50)

_NUMPY_CMP = {
    "=": np.equal, "!=": np.not_equal,
    "<": np.less, "<=": np.less_equal,
    ">": np.greater, ">=": np.greater_equal,
    "eq": np.equal, "ne": np.not_equal,
    "lt": np.less, "le": np.less_equal,
    "gt": np.greater, "ge": np.greater_equal,
}


class _PositionalOverflow(Exception):
    """A runtime intermediate left the exact-integer float64 range."""


def _positional_guard(out):
    if np.any(np.abs(out) > _POSITIONAL_EXACT_BOUND):
        raise _PositionalOverflow
    return out


def _positional_arith(x, y, op: str, integral: bool):
    """Elementwise arithmetic mirroring :func:`values.arithmetic`.

    ``integral`` selects the integer branch: its ``idiv`` truncates the
    *rounded* float quotient exactly like ``_int_div`` (which divides in
    float too), and its ``mod`` uses the same ``x - idiv(x, y) * y``
    identity; the float branch uses ``fmod``, matching ``math.fmod``.
    """
    if op in ("div", "idiv", "mod") and np.any(np.equal(y, 0)):
        raise XQueryDynamicError(f"{op}: division by zero",
                                 code="err:FOAR0001")
    if op == "+":
        return _positional_guard(x + y)
    if op == "-":
        return _positional_guard(x - y)
    if op == "*":
        return _positional_guard(x * y)
    if op == "div":
        return _positional_guard(x / y)
    if op == "idiv":
        return _positional_guard(np.trunc(x / y))
    if integral:
        return _positional_guard(x - np.trunc(x / y) * y)
    return _positional_guard(np.fmod(x, y))


def _positional_ebv(fn, kind: str):
    """Effective boolean value of a compiled numeric/boolean operand."""
    if kind == "bool":
        return fn
    return lambda pos, last: np.not_equal(fn(pos, last), 0)


def _nonzero_literal(expr) -> bool:
    """True for a (possibly sign-wrapped) non-zero numeric literal —
    a divisor that provably cannot raise ``err:FOAR0001``."""
    while isinstance(expr, ast.UnaryOp):
        expr = expr.operand
    return (isinstance(expr, ast.Literal)
            and isinstance(expr.value, (int, float))
            and not isinstance(expr.value, bool)
            and expr.value != 0)


def _compile_positional_expr(expr):
    """Compile one predicate into ``(fn, kind, may_raise)`` — or
    ``None``.

    ``fn(pos, last) -> ndarray`` evaluates the expression elementwise
    over the float64 position/size columns of a CSR batch; ``kind`` is
    ``"int"``/``"float"`` (numeric value) or ``"bool"``; ``may_raise``
    marks a division whose divisor is not provably non-zero.  The
    interpreted evaluator short-circuits ``and``/``or`` per item while
    the compiled pipeline evaluates both sides for all rows, so a
    may-raise operand under ``and``/``or`` refuses to compile — the
    eager evaluation could surface a dynamic error the oracle never
    reaches.  ``None`` means the expression is outside the positional
    subset (literals, ``position()``/``last()``, arithmetic,
    comparisons, ``and``/``or``, ``not()``/``true()``/``false()``) and
    its stage runs per item.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        if abs(value) > _POSITIONAL_EXACT_BOUND:
            return None
        kind = "int" if isinstance(value, int) else "float"
        return (lambda pos, last: np.float64(value)), kind, False
    if isinstance(expr, ast.FunctionCall):
        local = expr.name.rpartition(":")[2]
        if local == "position" and not expr.args:
            return (lambda pos, last: pos), "int", False
        if local == "last" and not expr.args:
            return (lambda pos, last: last), "int", False
        if local == "true" and not expr.args:
            return (lambda pos, last: np.True_), "bool", False
        if local == "false" and not expr.args:
            return (lambda pos, last: np.False_), "bool", False
        if local == "not" and len(expr.args) == 1:
            arg = _compile_positional_expr(expr.args[0])
            if arg is None:
                return None
            fn, kind, may_raise = arg
            ebv = _positional_ebv(fn, kind)
            return (lambda pos, last: np.logical_not(ebv(pos, last))), \
                "bool", may_raise
        return None
    if isinstance(expr, ast.UnaryOp):
        operand = _compile_positional_expr(expr.operand)
        if operand is None or operand[1] == "bool":
            return None
        fn, kind, may_raise = operand
        if expr.op == "-":
            return (lambda pos, last: -fn(pos, last)), kind, may_raise
        return fn, kind, may_raise
    if isinstance(expr, ast.BinaryOp):
        op = expr.op
        if op == "and" or op == "or" or op in _ARITH_OPS \
                or op in _NUMPY_CMP:
            left = _compile_positional_expr(expr.left)
            right = _compile_positional_expr(expr.right)
            if left is None or right is None:
                return None
            (lhs, lkind, lraise), (rhs, rkind, rraise) = left, right
        else:
            return None
        if op in ("and", "or"):
            if lraise or rraise:
                return None
            lhs, rhs = _positional_ebv(lhs, lkind), \
                _positional_ebv(rhs, rkind)
            combine = np.logical_and if op == "and" else np.logical_or
            return (lambda pos, last: combine(lhs(pos, last),
                                              rhs(pos, last))), \
                "bool", False
        if lkind == "bool" or rkind == "bool":
            return None
        may_raise = lraise or rraise
        if op in _NUMPY_CMP:
            cmp = _NUMPY_CMP[op]
            return (lambda pos, last: cmp(lhs(pos, last),
                                          rhs(pos, last))), \
                "bool", may_raise
        if op in ("div", "idiv", "mod") \
                and not _nonzero_literal(expr.right):
            may_raise = True
        integral = lkind == "int" and rkind == "int"
        if op == "idiv" or (integral and op != "div"):
            kind = "int"
        else:
            kind = "float"
        return (lambda pos, last: _positional_arith(
            lhs(pos, last), rhs(pos, last), op, integral)), \
            kind, may_raise
    return None


def _positional_masker(predicate: ast.Expr):
    """One predicate as a position mask, or None when it does not
    compile (:func:`_compile_positional_expr`).

    ``masker(offsets, reverse)`` gives the keep mask of a CSR batch with
    :func:`_predicate_truth` semantics, vectorized: a numeric predicate
    keeps the rows whose position in their segment equals its value, a
    boolean one keeps its own truth rows.
    """
    compiled = _compile_positional_expr(predicate)
    if compiled is None:
        return None
    fn, kind, _may_raise = compiled

    def masker(offsets: np.ndarray, reverse: bool) -> np.ndarray:
        pos = segment_positions(offsets, reverse=reverse).astype(np.float64)
        value = np.asarray(fn(pos, segment_lengths(offsets)
                              .astype(np.float64)))
        if kind == "bool":
            return np.broadcast_to(value.astype(bool), pos.shape)
        return value == pos

    return masker


class _PredicateScopes:
    """The iterative evaluator's scope for a step's predicates, one
    iteration at a time: the predicates run per item on the DOM side,
    where the loop-lifted variables they mention must read as the
    current iteration's plain sequences.  Built on the first
    :meth:`at`, so a step whose stages all run on the columns never
    builds it."""

    def __init__(self, env: BulkEnv, predicates: list):
        self._env = env
        self._predicates = predicates
        self._scope = None

    def at(self, it: int) -> DynamicContext:
        if self._scope is None:
            env = self._env
            self._scope = env.ctx.child_scope()
            self._lifted = {
                node.name: _live(env.variables[node.name], env.loop)
                for node in ast.walk(self._predicates)
                if isinstance(node, ast.VarRef)
                and node.name in env.variables}
        for name, seq in self._lifted.items():
            self._scope.variables[name] = seq.items_for(it)
        return self._scope


def _bulk_predicates_whole(seq: IterSeq, predicates: list,
                           env: BulkEnv) -> IterSeq:
    """Apply predicates per iteration over the whole result sequence."""
    if not predicates:
        return seq
    scopes = _PredicateScopes(env, predicates)
    out: dict[int, list] = {}
    for it in env.loop:
        items = seq.items_for(it)
        if not items:
            continue
        scope = scopes.at(it)
        for predicate in predicates:
            if not items:
                break
            items = _filter_by_predicate(items, predicate, scope)
        if items:
            out[it] = items
    return IterSeq(out)


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def _bulk_element_ctor(expr: ast.ElementConstructor,
                       env: BulkEnv) -> IterSeq:
    """Element construction stays loop-lifted: every embedded expression
    evaluates in bulk first; elements are then assembled per iteration.

    This is what keeps XMark Q2-style queries (StandOff steps inside the
    returned constructor) on the single-scan path.
    """
    attr_parts: list[tuple[str, list]] = []
    for attr in expr.attributes:
        parts = [(part if isinstance(part, str)
                  else eval_bulk(part, env)) for part in attr.parts]
        attr_parts.append((attr.name, parts))
    content_parts: list = []
    for part in expr.content:
        if isinstance(part, str):
            content_parts.append(part)
        elif isinstance(part, ast.ElementConstructor):
            content_parts.append(_bulk_element_ctor(part, env))
        else:
            content_parts.append(eval_bulk(part, env))

    out: dict[int, list] = {}
    for it in env.loop:
        element = Element(expr.name)
        for name, parts in attr_parts:
            chunks = []
            for part in parts:
                if isinstance(part, str):
                    chunks.append(part)
                else:
                    values = atomize(part.items_for(it))
                    chunks.append(" ".join(atomic_to_string(v)
                                           for v in values))
            element.set_attribute(name, "".join(chunks))
        for part in content_parts:
            if isinstance(part, str):
                if part.strip():
                    element.append_text(part)
                continue
            pending: list[str] = []
            for value in part.items_for(it):
                if isinstance(value, Node):
                    if pending:
                        element.append_text(" ".join(pending))
                        pending = []
                    element.append(_copy_node(value))
                else:
                    pending.append(atomic_to_string(value))
            if pending:
                element.append_text(" ".join(pending))
        _renumber_fragment(element)
        out[it] = [element]
    return IterSeq(out)


def _bulk_text_ctor(expr: ast.TextConstructor, env: BulkEnv) -> IterSeq:
    part_seqs = [(part if isinstance(part, str) else eval_bulk(part, env))
                 for part in expr.parts]
    out: dict[int, list] = {}
    for it in env.loop:
        chunks = []
        for part in part_seqs:
            if isinstance(part, str):
                chunks.append(part)
            else:
                values = atomize(part.items_for(it))
                chunks.append(" ".join(atomic_to_string(v)
                                       for v in values))
        out[it] = [Text("".join(chunks))]
    return IterSeq(out)


_DISPATCH = {
    ast.Literal: _bulk_literal,
    ast.EmptySequence: _bulk_empty,
    ast.VarRef: _bulk_varref,
    ast.ContextItem: _bulk_context_item,
    ast.Sequence: _bulk_sequence,
    ast.UnaryOp: _bulk_unary,
    ast.RangeExpr: _bulk_range,
    ast.IfExpr: _bulk_if,
    ast.Quantified: _bulk_quantified,
    ast.BinaryOp: _bulk_binary,
    ast.FLWOR: _bulk_flwor,
    ast.FunctionCall: _bulk_call,
    ast.PathExpr: _bulk_path,
    ast.ElementConstructor: _bulk_element_ctor,
    ast.TextConstructor: _bulk_text_ctor,
    ast.AxisStep: lambda expr, env: _bulk_step(expr, env, None),
    ast.FilterExpr: lambda expr, env: _bulk_step(expr, env, None),
}
