"""Bridge between the XQuery evaluators and the StandOff join machinery.

A StandOff step runs its join once per XML fragment of the context and
concatenates the results (§4.4) — the shape of a Staircase step, and
the same driver runs both: :func:`repro.xquery.bulk.fragment_step`
groups the context per fragment, makes one call of the family's join
per group, and merges the results.  This module supplies the StandOff
family's join (:func:`standoff_join`): one
:func:`~repro.core.steps.standoff_step` call against the fragment's
region index (:meth:`DynamicContext.region_index_for` asks the store
about the shred, so a stored document's persisted table is used
without its DOM), with the candidate sequence derived from the step's
name test via the element index (selection pushdown, §4.3), its
:class:`~repro.relational.columnar.ColumnarResult` masked by the node
test where it was not pushed down.  The step's predicates are the
driver's stages, applied to that result like a Staircase step's
(:func:`repro.xquery.bulk.step_route`).

The join is keyed by iteration: a StandOff step is a sequence-level
join, so positions count per iteration, and several fragments in one
iteration concatenate in the order they first appear there.  The
loop-lifted evaluator runs it over all iterations at once; the
``udf``/``basic`` evaluator's step (:func:`standoff_axis_step`) and the
builtin-function form (:func:`standoff_function`) run the same driver
over one iteration.
"""

from __future__ import annotations

import numpy as np

from repro.core.naive import StandoffOp
from repro.core.steps import Strategy, standoff_step
from repro.relational.columnar import ColumnarResult
from repro.relational.sequence import IterSeq
from repro.xmldb.dom import Node
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


def standoff_join(ctx: DynamicContext, op_name: str,
                  test: NodeTest | None = None, *,
                  candidates: list[Node] | None = None):
    """The StandOff family's join of one step for
    :func:`repro.xquery.bulk.fragment_step`: ``join(shredded, its,
    pres)`` runs one :func:`~repro.core.steps.standoff_step` over one
    fragment's context columns and returns its
    :class:`~repro.relational.columnar.ColumnarResult`, each call
    counted (:meth:`DynamicContext.count_standoff_join`).

    *candidates* are the builtin form's explicit candidate nodes (only
    those in the joined fragment take part); otherwise *test* derives
    them.  The result is masked by a name test that was not pushed
    down before anything is decoded.
    """
    op = StandoffOp.from_name(op_name)
    options = ctx.options
    explicit: dict[Node, list[Node]] | None = None
    if candidates is not None:
        explicit = {}
        for node in candidates:
            explicit.setdefault(node.root, []).append(node)

    def join(shredded, its: np.ndarray, pres: np.ndarray
             ) -> ColumnarResult:
        ctx.count_standoff_join()
        index = ctx.region_index_for(shredded)
        if explicit is not None:
            # Read the pres now: the fragment is shredded, so numbered.
            wanted = np.unique(np.asarray(
                [node.pre for node in explicit.get(shredded.root, ())],
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
        return result

    return join


def standoff_axis_step(ctx: DynamicContext, axis: str,
                       context_nodes: list[Node],
                       test: NodeTest) -> list[Node]:
    """Evaluate a StandOff axis step for one context sequence (§3.3).

    The join is computed between the whole context sequence (S1) and the
    candidate sequence derived from the node test (S2) — StandOff steps
    are sequence-level joins, not per-node mappings (this matters for the
    reject anti-joins).
    """
    return _one_iteration(ctx, context_nodes,
                          standoff_join(ctx, axis, test))


def standoff_function(ctx: DynamicContext, op_name: str,
                      context_nodes: list[Node],
                      candidates: list[Node] | None) -> list[Node]:
    """The builtin-function form (Alternative 3 of §3.2)."""
    return _one_iteration(ctx, context_nodes,
                          standoff_join(ctx, op_name,
                                        candidates=candidates))


def _one_iteration(ctx: DynamicContext, context_nodes: list[Node],
                   join) -> list[Node]:
    # Imported here: the bulk evaluator imports this module.
    from repro.xquery.bulk import fragment_step

    return list(fragment_step(ctx, IterSeq({0: context_nodes}), [0],
                              join).items_for(0))
