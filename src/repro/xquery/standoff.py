"""Bridge between the XQuery evaluators and the StandOff join machinery.

A StandOff step runs its join once per XML fragment of the context and
concatenates the results (§4.4) — the shape of a Staircase step.  The
context is grouped per fragment: a one-fragment node sequence held as
``(iter, pre)`` columns (:class:`~repro.relational.sequence.NodeColumns`)
is one group as it stands; a node list is grouped by the fragment's
shredded columns (:meth:`DynamicContext.shredded_for`).  Each group
makes one :func:`~repro.core.steps.standoff_step` call against the
fragment's region index (:meth:`DynamicContext.region_index_for` asks
the store about the shred, so a stored document's persisted table is
used without its DOM), with the candidate sequence derived from the
step's name test via the element index (selection pushdown, §4.3).

Each fragment's :class:`~repro.relational.columnar.ColumnarResult` is
then masked by the node test where it was not pushed down and by the
step predicates' column filter.  A one-fragment result stays columns
(``NodeColumns``); the results of several fragments are decoded,
concatenated in order of first appearance, and sorted into document
order.  The ``udf``/``basic`` evaluator's step and the builtin-function
form run the same routine over one iteration.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.core.naive import StandoffOp
from repro.core.steps import Strategy, standoff_step
from repro.errors import XQueryTypeError
from repro.relational.columnar import ColumnarResult
from repro.relational.sequence import IterSeq, Loop, NodeColumns
from repro.xmldb.dom import Node, document_order
from repro.xquery.ast import NodeTest
from repro.xquery.context import DynamicContext

#: Fraction of the region index above which the ``auto`` pushdown policy
#: prefers post-filtering (§3.3 (iii): "the usual handling of builtin
#: functions enforces selection pushdown, which for non-selective
#: predicates may lead to counter-productive evaluation").
AUTO_PUSHDOWN_THRESHOLD = 0.5


def _candidate_ids_for_test(ctx: DynamicContext, shredded, index,
                            test: NodeTest | None) -> np.ndarray | None:
    """Pushed-down candidate ids, or None for 'whole region index'.

    A name test resolves through the element index exactly as the node
    test matches (local names, :meth:`ShreddedDocument.elements_matching`);
    ``*`` and ``node()`` place no restriction.  Non-element kind tests
    cannot match area-annotations (only elements carry regions), so
    they yield an empty candidate set.

    The context's ``pushdown`` policy decides whether a name test is
    pushed into the join (index intersection) or applied afterwards to
    the join result — the optimizer choice the paper argues XPath-step
    semantics enables (§3.3 (iii)).
    """
    if test is None or test.kind == "node":
        return None
    if test.kind == "name":
        if test.name == "*":
            return None
        policy = ctx.options.pushdown
        if policy == "never":
            return None
        named = shredded.elements_matching(test.name)
        if policy == "auto" and len(index) \
                and len(named) > AUTO_PUSHDOWN_THRESHOLD * len(index):
            return None
        return named
    return np.empty(0, dtype=np.int64)


def _node_groups(ctx: DynamicContext,
                 per_iter: Iterable[tuple[int, list]]) -> list[tuple]:
    """Group node-list context rows per fragment, in order of first
    appearance: ``(shredded, its, pres)`` each, the columns sorted by
    ``(iter, pre)`` and duplicate-free."""
    groups: dict[Node, tuple] = {}
    for iteration, nodes in per_iter:
        for node in nodes:
            if not isinstance(node, Node):
                raise XQueryTypeError(
                    "StandOff steps require node context items")
            root = node.root
            group = groups.get(root)
            if group is None:
                group = groups[root] = (ctx.shredded_for(root), [], [])
            # Read the pre *after* shredding: a constructed fragment's
            # numbering is assigned (idempotently) by the shred.
            group[1].append(iteration)
            group[2].append(node.pre)
    out = []
    for shredded, its, pres in groups.values():
        rows = ColumnarResult.from_pairs(its, pres)
        out.append((shredded, np.repeat(rows.iters, np.diff(rows.offsets)),
                    rows.values))
    return out


def _step(ctx: DynamicContext, op_name: str, groups: list[tuple],
          test: NodeTest | None, keep=None,
          candidates: list[Node] | None = None) -> Mapping:
    """One StandOff step over context *groups* (see :func:`_node_groups`):
    one join per fragment, one counted join per step.

    *candidates* are the builtin form's explicit candidate nodes (only
    those in a context fragment take part); otherwise *test* derives
    them.  *keep* (``(shredded, pres) -> bool mask``) filters each
    fragment's result before anything is decoded.
    """
    if not groups:
        return {}
    op = StandoffOp.from_name(op_name)
    options = ctx.options
    explicit = None
    if candidates is not None:
        explicit = {shredded.root: [] for shredded, _its, _pres in groups}
        for node in candidates:
            explicit.get(node.root, []).append(node.pre)
    ctx.count_standoff_join()
    results = []
    for shredded, its, pres in groups:
        index = ctx.region_index_for(shredded)
        if explicit is not None:
            wanted = np.unique(np.asarray(explicit[shredded.root],
                                          dtype=np.int64))
        else:
            wanted = _candidate_ids_for_test(ctx, shredded, index, test)
        result = standoff_step(
            op, index, (its, pres), wanted,
            strategy=Strategy(options.strategy), kernel=options.kernel,
            workers=options.workers, shard_min_rows=options.shard_min_rows,
            executor=options.executor)
        if wanted is None and test is not None and test.kind == "name" \
                and test.name != "*":
            # The name test was not pushed down: post-filter.
            result = result.keep_rows(np.isin(
                result.values, shredded.elements_matching(test.name)))
        if keep is not None:
            result = result.keep_rows(keep(shredded, result.values))
        results.append((shredded, result))
    if len(results) == 1:
        return NodeColumns(*results[0])
    merged: dict[int, list[Node]] = {}
    for shredded, result in results:
        for iteration, nodes in NodeColumns(shredded, result).items():
            if nodes:
                merged.setdefault(iteration, []).extend(nodes)
    return {iteration: document_order(nodes)
            for iteration, nodes in merged.items()}


def standoff_axis_step_lifted(ctx: DynamicContext, axis: str,
                              context: IterSeq, loop: Loop,
                              test: NodeTest, keep=None) -> Mapping:
    """Loop-lifted StandOff axis step: all iterations of *loop* in one
    join call per fragment.

    A context held as :class:`~repro.relational.sequence.NodeColumns`
    joins from its ``(iter, pre)`` columns.  A result in one fragment
    comes back as ``NodeColumns`` too; a result spanning fragments is
    decoded.  *keep* is the column filter of the step's predicates (see
    :func:`_step`).
    """
    if isinstance(context.data, NodeColumns):
        its, pres = context.data.rows(loop)
        groups = [(context.data.shredded, its, pres)] if len(its) else []
    else:
        groups = _node_groups(
            ctx, ((it, context.items_for(it)) for it in loop))
    return _step(ctx, axis, groups, test, keep=keep)


def standoff_axis_step(ctx: DynamicContext, axis: str,
                       context_nodes: list[Node],
                       test: NodeTest) -> list[Node]:
    """Evaluate a StandOff axis step for one context sequence (§3.3).

    The join is computed between the whole context sequence (S1) and the
    candidate sequence derived from the node test (S2) — StandOff steps
    are sequence-level joins, not per-node mappings (this matters for the
    reject anti-joins).
    """
    groups = _node_groups(ctx, [(0, context_nodes)])
    return list(_step(ctx, axis, groups, test).get(0, []))


def standoff_function(ctx: DynamicContext, op_name: str,
                      context_nodes: list[Node],
                      candidates: list[Node] | None) -> list[Node]:
    """The builtin-function form (Alternative 3 of §3.2)."""
    groups = _node_groups(ctx, [(0, context_nodes)])
    return list(_step(ctx, op_name, groups, None,
                      candidates=candidates).get(0, []))
