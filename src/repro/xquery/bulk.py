"""Loop-lifted (bulk) evaluator — the Pathfinder-style execution model.

Expressions evaluate to :class:`~repro.relational.sequence.IterSeq`
values (the ``iter|pos|item`` representation of §4.1) under a *loop
relation* listing the live iterations.  A ``for`` clause expands the
loop (one inner iteration per binding item), relifts the visible
variables, and unlifts the body's result back — so an axis step in the
body sees the context nodes of **all** iterations at once:

* StandOff steps issue a **single** Loop-Lifted StandOff MergeJoin call
  (:func:`repro.xquery.standoff.standoff_axis_step_lifted`);
* tree-axis steps (descendant, ancestor, child, following, preceding,
  the sibling axes) issue one loop-lifted Staircase Join per fragment
  (:func:`step_route` picks how the predicates run):

  - steps whose predicates are all *column terms*
    (:func:`repro.xquery.rewrite.column_predicate`: ``[@a op "lit"]``,
    ``[@a op 42]``, ``[@a]`` under ``not``/``and``/``or``) filter the
    join's CSR output with one keep-mask computed on the shred's
    dictionary-encoded attribute columns
    (:meth:`~repro.xmldb.shred.ShreddedDocument.attribute_column`) —
    no node is decoded before it survives, no interpreter runs; a
    step where some candidate's compare would raise (a failed cast, a
    value comparison over two attributes) takes the next route, so the
    error surfaces exactly as the oracle raises it;
  - steps whose other predicates are all position-free
    (:func:`repro.xquery.rewrite.position_free`) join first and filter
    the decoded result per item;
  - steps whose predicates compile to position masks filter the
    join's CSR output columnar;
  - only what is left (the attribute, self and parent axes, predicates
    mixing positions with values) walks the DOM per node.

  StandOff steps whose predicates are column terms filter the merge
  join's columnar result the same way before decoding.

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
    LazyIterData,
    Loop,
    expand_loop,
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
from repro.xquery.context import DynamicContext, Focus
from repro.xquery.evaluator import (
    _copy_node,
    _filter_by_predicate,
    _renumber_fragment,
)
from repro.xquery.functions import lookup_builtin
from repro.xquery.rewrite import column_predicates, position_free
from repro.xquery.standoff import standoff_axis_step_lifted
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
    if ctx.focus is not None:
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
        return env.variables[expr.name]
    except KeyError:
        from repro.errors import XQueryDynamicError

        raise XQueryDynamicError(f"undefined variable ${expr.name}",
                                 code="err:XPDY0002") from None


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
            inner_loop, outer_of_inner, var_seq, pos_seq = expand_loop(
                binding, inner_env.loop)
            variables = {name: seq.relift(outer_of_inner)
                         for name, seq in inner_env.variables.items()}
            variables[clause.var] = var_seq
            if clause.position_var:
                variables[clause.position_var] = pos_seq
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
    inner_loop, outer_of_inner, var_seq, _pos = expand_loop(binding,
                                                            env.loop)
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
    return _per_iter(env, arg_seqs,
                     lambda *args: builtin(env.ctx, list(args)))


# ----------------------------------------------------------------------
# paths
# ----------------------------------------------------------------------

def _bulk_path(expr: ast.PathExpr, env: BulkEnv) -> IterSeq:
    if expr.absolute:
        if env.focus_seq is None:
            from repro.errors import XQueryDynamicError

            raise XQueryDynamicError("'/' requires a context item",
                                     code="err:XPDY0002")
        current = env.focus_seq.map_items(lambda n: n.root)
    else:
        current = None
    for step in expr.steps:
        current = _bulk_step(step, env, current)
    if current is None:
        return env.focus_seq.map_items(lambda n: n.root)
    return current


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
    if step.is_standoff:
        per_iter = {}
        for it in env.loop:
            items = context.items_for(it)
            if items:
                per_iter[it] = items
        terms = column_predicates(step.predicates)
        if terms is not None:
            try:
                return IterSeq(standoff_axis_step_lifted(
                    env.ctx, step.axis, per_iter, step.test,
                    keep=_column_keep(terms)))
            except _Undecided:
                pass     # rejoin, then filter per item
        result_map = standoff_axis_step_lifted(env.ctx, step.axis,
                                               per_iter, step.test)
        if isinstance(result_map, LazyIterData):
            # Columnar fast path: keep the join output lazy — per-
            # iteration node lists decode on access, so iterations a
            # later clause discards are never materialized.
            result = IterSeq(result_map)
        else:
            result = IterSeq({it: nodes for it, nodes in result_map.items()
                              if nodes})
        return _bulk_predicates_whole(result, step.predicates, env)
    return _bulk_standard_axis(step, env, context)


def step_route(step: ast.AxisStep) -> tuple[str, list | None]:
    """Which path a tree-axis step takes, decided from its shape alone
    (``Database.explain`` prints the same verdict the evaluator acts on):

    ``("columns", terms)``
        every predicate is a column term — one predicate-less Staircase
        Join, then a keep-mask on its CSR output from the attribute
        columns (the ``kernel`` route when some compare would raise);
    ``("kernel", None)``
        no predicate, or only position-free ones — one predicate-less
        Staircase Join, then a per-item filter;
    ``("positional", maskers)``
        the predicate chain compiles to columnar position masks;
    ``("dom", None)``
        the per-node DOM walk (a non-Staircase axis, or a predicate
        that is none of these).
    """
    if step.axis in STAIRCASE_AXES:
        terms = column_predicates(step.predicates)
        if terms is not None:
            return "columns", terms
        if all(position_free(p) for p in step.predicates):
            return "kernel", None
        maskers = compile_positional_predicates(step.predicates)
        if maskers is not None:
            return "positional", maskers
    return "dom", None


def _bulk_standard_axis(step: ast.AxisStep, env: BulkEnv,
                        context: IterSeq) -> IterSeq:
    route, plan = step_route(step)
    if route != "dom":
        axis, or_self = STAIRCASE_AXES[step.axis]
        if route == "columns":
            try:
                lifted = _staircase_axis_step(step, env, context, axis,
                                              or_self,
                                              keep=_column_keep(plan))
            except _Undecided:
                route = "kernel"
            else:
                if lifted is not None:
                    return lifted
        if route == "kernel":
            # A position-free predicate is a per-item test, so it does
            # not matter that the join groups candidates per iteration
            # where the DOM walk groups them per context node.
            lifted = _staircase_axis_step(step, env, context, axis,
                                          or_self)
            if lifted is not None:
                return _bulk_predicates_whole(lifted, step.predicates,
                                              env)
        elif route == "positional":
            lifted = _staircase_positional_step(
                step, env, context, axis, or_self, plan)
            if lifted is not None:
                return lifted

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
        scope = scopes.at(it)
        collected: list[Node] = []
        for node in nodes:
            if not isinstance(node, Node):
                raise XQueryTypeError("path steps require node items")
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


def _staircase_candidate_desc(test: ast.NodeTest) -> tuple | None:
    """The picklable descriptor of a node test's candidate pre pool
    (resolved by :func:`repro.staircase.kernels_vec.resolve_staircase_pool`,
    in the parent and in process-pool workers alike), or ``None`` when
    the shredded encoding has no pool for the test (fall back to the
    DOM walk).

    The tree axes never yield attribute nodes (attributes are not
    children, and only the attribute axis has them as principal nodes),
    so the ``node()`` pool is the non-attribute rows — keeping the fast
    path in exact agreement with the DOM walk.
    """
    if test.kind == "name":
        if test.name == "*":
            return ("all-elements",)
        return ("name", test.name)
    if test.kind == "node":
        return ("non-attr",)
    if test.kind == "text":
        return ("kind", Text.kind)
    if test.kind == "comment":
        return ("kind", Comment.kind)
    if test.kind == "processing-instruction":
        return ("kind", ProcessingInstruction.kind)
    return None


def _tie_prone(env: BulkEnv, context: IterSeq,
               transient: set[int]) -> bool:
    """True when some iteration's context touches two or more transient
    fragments — only then can document_order keys tie."""
    for it in env.loop:
        seen: set[int] = set()
        for node in context.items_for(it):
            key = id(env.ctx.shredded_for(node.root))
            if key in transient:
                seen.add(key)
                if len(seen) > 1:
                    return True
    return False


def _staircase_axis_step(step: ast.AxisStep, env: BulkEnv,
                         context: IterSeq, axis: str,
                         or_self: bool, keep=None) -> IterSeq | None:
    """Loop-lifted Staircase Join path for the tree axes.

    Applies whenever the test is a name or kind test: context nodes are
    grouped per fragment — stored documents use the store's shred,
    constructed fragments shred on demand through the context's
    transient cache — and each group runs one batched axis join; the
    kernel (reference dict path vs batched columnar) is resolved per
    call through the unified registry from
    ``ctx.options.staircase_kernel``.
    The common single-fragment case feeds the columnar result into the
    lazy node view directly — no ``dict[int, list]`` round-trip; mixed
    stored + constructed contexts merge per iteration in document
    order, exactly like the DOM walk would (iterations touching two or
    more transient fragments collect per context row so cross-tree
    order ties break identically).  *keep* (``(shredded, pres) -> bool
    mask``, see :func:`_column_keep`) filters every join result columnar
    before anything is decoded.  Returns None only for tests the
    shredded encoding has no candidate pool for.
    """
    from repro.staircase.kernels_vec import (
        resolve_staircase_pool,
        staircase_join,
    )

    desc = _staircase_candidate_desc(step.test)
    if desc is None:
        return None
    groups: dict[int, list[tuple[int, int]]] = {}
    shreds: dict[int, object] = {}
    attr_self: dict[int, list[Node]] = {}
    for it in env.loop:
        for node in context.items_for(it):
            if not isinstance(node, Node):
                return None
            shredded = env.ctx.shredded_for(node.root)
            key = id(shredded)
            shreds[key] = shredded
            if or_self and isinstance(node, Attr) \
                    and matches_test(node, step.test, step.axis) \
                    and _self_kept(keep, shredded, node):
                # Or-self inclusion is pool membership inside the
                # kernel; attribute context nodes are outside every
                # tree-axis pool, so their self-match rides along
                # DOM-side.
                attr_self.setdefault(it, []).append(node)
            # Read the pre *after* shredding: a constructed fragment's
            # numbering is assigned (idempotently) by the shred.
            groups.setdefault(key, []).append((it, node.pre))
    if not shreds:
        return IterSeq({})
    cand_by_key = {key: resolve_staircase_pool(shredded, desc)
                   for key, shredded in shreds.items()}

    def join(shredded, rows, candidates):
        result = staircase_join(
            axis, shredded, rows, candidates, or_self=or_self,
            kernel=env.ctx.options.staircase_kernel,
            workers=env.ctx.options.workers,
            shard_min_rows=env.ctx.options.shard_min_rows,
            executor=env.ctx.options.executor,
            candidate_desc=desc)
        if keep is None:
            return result
        if not isinstance(result, ColumnarResult):
            result = ColumnarResult.from_dict(result)
        return result.keep_rows(keep(shredded, result.values))

    # document_order sorts by (doc id, pre), stable on ties — and two
    # *transient* fragments (orphan subtrees or unstored documents) can
    # tie, because neither owns a store-unique doc id.  The DOM walk
    # breaks such ties by per-iteration collection order, so any
    # iteration touching two or more transient fragments collects per
    # context row in context order (one single-row kernel join each) —
    # tied nodes always come from different rows, never the same one,
    # so row-ordered collection reproduces the oracle exactly.  The
    # check runs only in the already-rare multi-fragment case.
    if len(shreds) > 1:
        transient = {
            key for key, sh in shreds.items()
            if sh.document is None
            or env.ctx.store.by_document(sh.document) is None}
        if len(transient) > 1 and _tie_prone(env, context, transient):
            out: dict[int, list] = {}
            for it in env.loop:
                collected: list[Node] = []
                for node in context.items_for(it):
                    shredded = env.ctx.shredded_for(node.root)
                    result = join(shredded, [(0, node.pre)],
                                  cand_by_key[id(shredded)])
                    if 0 in result:
                        collected.extend(shredded.node_by_pre(p)
                                         for p in result[0])
                    if or_self and isinstance(node, Attr) \
                            and matches_test(node, step.test, step.axis) \
                            and _self_kept(keep, shredded, node):
                        collected.append(node)
                ordered = document_order(collected)
                if ordered:
                    out[it] = ordered
            return IterSeq(out)

    results = [(shreds[key], join(shreds[key], rows, cand_by_key[key]))
               for key, rows in groups.items()]
    if len(results) == 1 and not attr_self:
        shredded, result = results[0]
        if isinstance(result, ColumnarResult):
            def decode(iteration: int, _result=result,
                       _sh=shredded) -> list:
                return [_sh.node_by_pre(pre)
                        for pre in _result.values_for(iteration).tolist()]

            return IterSeq(LazyIterData(result.iterations(), decode))
    out = {}
    for shredded, result in results:
        for it in result:   # Mapping protocol covers both result shapes
            nodes = [shredded.node_by_pre(pre) for pre in result[it]]
            if nodes:
                out.setdefault(it, []).extend(nodes)
    for it, extra in attr_self.items():
        out.setdefault(it, []).extend(extra)
    if len(results) > 1 or attr_self:
        # No iteration mixes two transient fragments here, so keys are
        # tie-free and the sort alone fixes the order.
        out = {it: document_order(nodes) for it, nodes in out.items()}
    return IterSeq(out)


def _self_kept(keep, shredded, node: Node) -> bool:
    """Whether *keep* keeps one node riding along outside the join."""
    return keep is None or bool(
        keep(shredded, np.asarray([node.pre], dtype=np.int64))[0])


# ----------------------------------------------------------------------
# column predicates
# ----------------------------------------------------------------------

class _Undecided(Exception):
    """Some candidate's compare would raise in the interpreter — a cast
    to a number fails, or a value comparison meets two attributes.  The
    step goes back to the per-item filter, which raises (or
    short-circuits past the compare) exactly as the oracle does."""


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


def _column_keep(terms: list):
    """The keep-mask function of a column-term predicate chain: the
    chain's predicates are position-free, so ``[p1][p2]`` keeps what
    every ``p`` keeps."""
    def keep(shredded, pres: np.ndarray) -> np.ndarray:
        mask = np.ones(len(pres), dtype=bool)
        for term in terms:
            mask &= _term_mask(term, shredded, pres)
        return mask

    return keep


# ----------------------------------------------------------------------
# vectorized positional predicates
# ----------------------------------------------------------------------

#: Magnitude bound on compiled positional arithmetic.  The pipeline
#: evaluates in float64; below this bound every intermediate (including
#: the products inside the ``mod`` identity) is an exactly-representable
#: integer, so the compiled chain agrees bit-for-bit with the
#: interpreted integer semantics of
#: :func:`repro.xquery.values.arithmetic`.  Larger literals refuse to
#: compile and larger runtime intermediates bail to the DOM walk.
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
    the step falls back to the per-node DOM walk.
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


def compile_positional_predicates(predicates: list):
    """Compile a predicate chain into per-stage mask functions.

    Each masker maps the ``(position, last)`` columns of one CSR batch
    to a keep mask, applying :func:`_predicate_truth` semantics
    vectorized: a numeric predicate keeps the rows whose position equals
    its value, a boolean one keeps its own truth rows.  Returns ``None``
    when any predicate is outside the positional subset.
    """
    maskers = []
    for predicate in predicates:
        compiled = _compile_positional_expr(predicate)
        if compiled is None:
            return None
        fn, kind, _may_raise = compiled
        if kind == "bool":
            def masker(pos, last, _fn=fn):
                return np.broadcast_to(
                    np.asarray(_fn(pos, last), dtype=bool), pos.shape)
        else:
            def masker(pos, last, _fn=fn):
                return np.asarray(_fn(pos, last)) == pos
        maskers.append(masker)
    return maskers


def _apply_positional_chain(offsets: np.ndarray, values: np.ndarray,
                            maskers: list, reverse: bool
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Filter a per-anchor CSR result through a compiled predicate
    chain.  Positions renumber within the surviving rows after every
    stage, exactly as XPath applies ``[p1][p2]`` left to right."""
    offsets = np.asarray(offsets, dtype=np.int64)
    for masker in maskers:
        if not len(values):
            break
        pos = segment_positions(offsets, reverse=reverse) \
            .astype(np.float64)
        last = segment_lengths(offsets).astype(np.float64)
        keep = masker(pos, last)
        kept = np.concatenate(([0], np.cumsum(keep, dtype=np.int64)))
        offsets = kept[offsets]
        values = values[keep]
    return offsets, values


def _dom_positional_anchor(node: Node, step: ast.AxisStep,
                           scope: DynamicContext) -> list[Node]:
    """One anchor's axis-plus-predicates result via the DOM walk (the
    rare corners the columnar filter leaves to the oracle path)."""
    axis_fn = AXIS_FUNCTIONS[step.axis]
    matched = [cand for cand in axis_fn(node)
               if matches_test(cand, step.test, step.axis)]
    if step.axis in REVERSE_AXES:
        matched.sort(key=Node.sort_key, reverse=True)
    for predicate in step.predicates:
        matched = _filter_by_predicate(matched, predicate, scope)
    return matched


def _staircase_positional_step(step: ast.AxisStep, env: BulkEnv,
                               context: IterSeq, axis: str,
                               or_self: bool, maskers: list
                               ) -> IterSeq | None:
    """Staircase axis step with a compiled positional predicate chain.

    Positions count per *context node*, not per iteration, so every
    (iteration, context node) row becomes its own kernel anchor: the
    join runs with one context row per anchor, making each CSR segment
    exactly one context node's axis result in document order — forward
    positions are the segment ordinals, reverse-axis positions the
    flipped ordinals (:func:`segment_positions`).  Attribute anchors
    whose or-self match would ride along DOM-side shift their whole
    sequence, so those anchors evaluate through the walk; everything
    else stays columnar.  Per-row collection in context order keeps
    cross-fragment document_order ties identical to the oracle.
    Returns None to fall back (unsupported test pool, non-node context,
    or arithmetic past the exact-float range).
    """
    from repro.staircase.kernels_vec import (
        resolve_staircase_pool,
        staircase_join,
    )

    desc = _staircase_candidate_desc(step.test)
    if desc is None:
        return None
    reverse = step.axis in REVERSE_AXES
    groups: dict[int, list[tuple[int, int]]] = {}
    shreds: dict[int, object] = {}
    anchor_iters: list[int] = []
    dom_anchors: dict[int, Node] = {}
    for it in env.loop:
        for node in context.items_for(it):
            if not isinstance(node, Node):
                return None
            shredded = env.ctx.shredded_for(node.root)
            key = id(shredded)
            shreds[key] = shredded
            anchor = len(anchor_iters)
            anchor_iters.append(it)
            if or_self and isinstance(node, Attr) \
                    and matches_test(node, step.test, step.axis):
                dom_anchors[anchor] = node
            else:
                groups.setdefault(key, []).append((anchor, node.pre))
    if not anchor_iters:
        return IterSeq({})
    cand_by_key = {key: resolve_staircase_pool(shredded, desc)
                   for key, shredded in shreds.items()}

    def filtered_join(key, rows):
        result = staircase_join(
            axis, shreds[key], rows, cand_by_key[key], or_self=or_self,
            kernel=env.ctx.options.staircase_kernel,
            workers=env.ctx.options.workers,
            shard_min_rows=env.ctx.options.shard_min_rows,
            executor=env.ctx.options.executor,
            candidate_desc=desc)
        if not isinstance(result, ColumnarResult):
            result = ColumnarResult.from_dict(result)
        offsets, values = _apply_positional_chain(
            result.offsets, result.values, maskers, reverse)
        return result.iters, offsets, values

    anchor_map = np.asarray(anchor_iters, dtype=np.int64)
    try:
        if len(groups) == 1 and not dom_anchors:
            # Single-fragment fast path: survivors map straight back to
            # iterations columnar; from_pairs re-sorts and dedups, which
            # is document order within one fragment.
            ((key, rows),) = groups.items()
            anchors, offsets, values = filtered_join(key, rows)
            lifted = ColumnarResult.from_pairs(
                np.repeat(anchor_map[anchors], np.diff(offsets)), values)
            shredded = shreds[key]

            def decode(iteration: int, _result=lifted,
                       _sh=shredded) -> list:
                return [_sh.node_by_pre(pre)
                        for pre in _result.values_for(iteration).tolist()]

            return IterSeq(LazyIterData(lifted.iterations(), decode))

        survivors: dict[int, list] = {}
        for key, rows in groups.items():
            anchors, offsets, values = filtered_join(key, rows)
            bounds = offsets.tolist()
            vals = values.tolist()
            shredded = shreds[key]
            for i, anchor in enumerate(anchors.tolist()):
                a, b = bounds[i], bounds[i + 1]
                if b > a:
                    survivors[anchor] = [shredded.node_by_pre(pre)
                                         for pre in vals[a:b]]
    except _PositionalOverflow:
        return None

    if dom_anchors:
        scope = env.ctx.child_scope()
        for anchor, node in dom_anchors.items():
            nodes = _dom_positional_anchor(node, step, scope)
            if nodes:
                survivors[anchor] = nodes

    collected: dict[int, list] = {}
    for anchor in sorted(survivors):
        nodes = survivors[anchor]
        collected.setdefault(int(anchor_map[anchor]), []).extend(nodes)
    return IterSeq({it: document_order(nodes)
                    for it, nodes in collected.items()})


class _PredicateScopes:
    """The iterative evaluator's scope for a step's predicates, one
    iteration at a time: the predicates run per item on the DOM side,
    where the loop-lifted variables they mention must read as the
    current iteration's plain sequences."""

    def __init__(self, env: BulkEnv, predicates: list):
        self._scope = env.ctx.child_scope()
        self._lifted = {
            node.name: env.variables[node.name]
            for node in ast.walk(predicates)
            if isinstance(node, ast.VarRef) and node.name in env.variables}

    def at(self, it: int) -> DynamicContext:
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
