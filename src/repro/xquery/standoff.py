"""Bridge between the XQuery evaluators and the StandOff join machinery.

Takes DOM context nodes, partitions them per XML fragment (§4.4), derives
the candidate sequence from the step's name test via the element index
(selection pushdown, §4.3), runs the configured join strategy, and maps
the resulting node ids back to DOM nodes in document order.

The step layer hands back a columnar result
(:class:`~repro.relational.columnar.ColumnarStepResult`, already in
document order because the fragment ranking is pushed *into* the join);
this module wraps it in a :class:`~repro.relational.sequence.LazyIterData`
that decodes node ids to DOM nodes per accessed iteration — the bulk
evaluator never sees an eagerly-exploded ``dict[int, list[Node]]``.
"""

from __future__ import annotations

import numpy as np

from repro.config import KERNEL_LL
from repro.core.naive import StandoffOp
from repro.core.steps import Strategy, standoff_step
from repro.errors import XQueryTypeError
from repro.relational.sequence import LazyIterData
from repro.xmldb.dom import Document, Element, Node
from repro.xquery.ast import NodeTest
from repro.xquery.context import DynamicContext


def _fragment_root(node: Node) -> Node:
    return node.root


class _FragmentInfo:
    """Resolves pre ranks <-> DOM nodes for one fragment root."""

    def __init__(self, root: Node, ctx: DynamicContext):
        self.root = root
        self.ctx = ctx
        self._by_pre: dict[int, Node] | None = None

    def node_by_pre(self, pre: int) -> Node:
        if isinstance(self.root, Document):
            return self.root.node_by_pre(pre)
        if self._by_pre is None:
            mapping: dict[int, Node] = {}
            for node in self.root.descendants_or_self():
                mapping[node.pre] = node
                if isinstance(node, Element):
                    for attr in node.attributes:
                        mapping[attr.pre] = attr
            self._by_pre = mapping
        return self._by_pre[pre]

    def elements_named(self, name: str) -> np.ndarray:
        if isinstance(self.root, Document):
            stored = self.ctx.store.by_document(self.root)
            if stored is not None:
                return stored.shredded.elements_named(name)
        pres = [node.pre for node in self.root.descendants_or_self()
                if isinstance(node, Element) and node.tag == name]
        return np.asarray(pres, dtype=np.int64)

    def sort_rank(self):
        if isinstance(self.root, Document):
            return (0, self.root.doc_id)
        return (1, id(self.root))


#: Fraction of the region index above which the ``auto`` pushdown policy
#: prefers post-filtering (§3.3 (iii): "the usual handling of builtin
#: functions enforces selection pushdown, which for non-selective
#: predicates may lead to counter-productive evaluation").
AUTO_PUSHDOWN_THRESHOLD = 0.5


def _candidate_ids_for_test(ctx: DynamicContext, info: _FragmentInfo,
                            test: NodeTest | None) -> np.ndarray | None:
    """Pushed-down candidate ids, or None for 'whole region index'.

    A name test uses the element index; ``*`` and ``node()`` place no
    restriction.  Non-element kind tests cannot match area-annotations
    (only elements carry regions), so they yield an empty candidate set.

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
        named = info.elements_named(test.name)
        if policy == "auto":
            index_size = len(ctx.region_index_for(info.root))
            if index_size and len(named) > AUTO_PUSHDOWN_THRESHOLD \
                    * index_size:
                return None
        return named
    return np.empty(0, dtype=np.int64)


def _run(ctx: DynamicContext, op: StandoffOp,
         context_by_fragment: dict[int, tuple[_FragmentInfo, list[int]]],
         candidates_by_fragment: dict[int, np.ndarray | None],
         iter_rows: list[tuple[int, int, int]],
         post=None, keep=None) -> LazyIterData:
    """Execute one StandOff step.

    Returns a lazy ``iter -> [DOM node, ...]`` mapping over the columnar
    step result; *post* (e.g. a node-test filter) is applied inside the
    per-iteration decode, so skipped iterations never pay for it.
    *keep* (``(shredded, pres) -> bool mask``, one call per fragment)
    filters the columnar result before anything is decoded.  It runs in
    this process on the merged result, whichever executor ran the join.
    """
    indexes = {}
    for key, (info, _pres) in context_by_fragment.items():
        indexes[key] = ctx.region_index_for(info.root)
    candidate_map = None
    if any(cand is not None for cand in candidates_by_fragment.values()):
        candidate_map = {
            key: (cand if cand is not None
                  else indexes[key].annotated_ids())
            for key, cand in candidates_by_fragment.items()}
    options = ctx.options
    strategy = Strategy(options.strategy)
    if strategy is Strategy.LOOP_LIFTED and options.kernel == KERNEL_LL and \
            len({it for it, _f, _n in iter_rows}) <= 1:
        # A single iteration: basic and loop-lifted coincide; use the
        # basic code path (the tree-walking evaluator's situation).
        # The vectorized kernel keeps the loop-lifted path so single
        # iterations also hit the batched join.
        strategy = Strategy.BASIC
    ctx.count_standoff_join()
    # Document order (stored documents before orphan fragments) is pushed
    # into the join as the fragment ranking, so the columnar result comes
    # back ordered and no per-pair re-sort is ever needed.
    ordered_fragments = sorted(
        context_by_fragment,
        key=lambda key: context_by_fragment[key][0].sort_rank())
    fragment_rank = {key: rank
                     for rank, key in enumerate(ordered_fragments)}
    raw = standoff_step(op, iter_rows, indexes,
                        candidate_map,
                        strategy=strategy,
                        active_structure=options.active_structure,
                        kernel=options.kernel,
                        fragment_rank=fragment_rank,
                        workers=options.workers,
                        shard_min_rows=options.shard_min_rows,
                        executor=options.executor)
    infos = {key: info
             for key, (info, _pres) in context_by_fragment.items()}
    if keep is not None:
        mask = np.zeros(raw.n_pairs, dtype=bool)
        for key in np.unique(raw.frags).tolist():
            rows = raw.frags == key
            mask[rows] = keep(ctx.shredded_for(infos[key].root),
                              raw.values[rows])
        raw = raw.keep_rows(mask)

    def decode(iteration: int) -> list[Node]:
        frags, pres = raw.segment(iteration)
        nodes = [infos[frag].node_by_pre(pre)
                 for frag, pre in zip(frags.tolist(), pres.tolist())]
        return nodes if post is None else post(nodes)

    return LazyIterData(raw.iterations(), decode)


def _prepare(ctx: DynamicContext,
             context_nodes_per_iter: dict[int, list[Node]],
             test: NodeTest | None,
             explicit_candidates: list[Node] | None):
    """Build fragment partitions and iter rows for :func:`_run`.

    Partition keys are ``id(root)`` ints (they travel through the
    kernel's fragment-id column, so they must stay ints) — sound only
    under the PR 7 strong-ref scheme: every entry pins its root
    (``(root, info)``), so a keyed address can never be recycled while
    the partition is alive, and every lookup verifies ``entry[0] is
    root`` so a stale entry at a reused address is never returned.
    """
    infos: dict[int, tuple[Node, _FragmentInfo]] = {}
    context_by_fragment: dict[int, tuple[_FragmentInfo, list[int]]] = {}
    iter_rows: list[tuple[int, int, int]] = []
    for iteration, nodes in context_nodes_per_iter.items():
        for node in nodes:
            if not isinstance(node, Node):
                raise XQueryTypeError(
                    "StandOff steps require node context items")
            root = _fragment_root(node)
            key = id(root)
            entry = infos.get(key)
            if entry is None or entry[0] is not root:
                info = _FragmentInfo(root, ctx)
                if not isinstance(root, Document):
                    # Number orphan fragments so pre ranks exist.
                    ctx.region_index_for(root)
                infos[key] = (root, info)
                context_by_fragment[key] = (info, [])
            context_by_fragment[key][1].append(node.pre)
            iter_rows.append((iteration, key, node.pre))

    candidates_by_fragment: dict[int, np.ndarray | None] = {}
    if explicit_candidates is not None:
        grouped: dict[int, list[int]] = {key: [] for key in infos}
        for node in explicit_candidates:
            root = _fragment_root(node)
            key = id(root)
            entry = infos.get(key)
            if entry is not None and entry[0] is root:
                grouped[key].append(node.pre)
        candidates_by_fragment = {
            key: np.asarray(sorted(set(pres)), dtype=np.int64)
            for key, pres in grouped.items()}
    else:
        for key, (_root, info) in infos.items():
            candidates_by_fragment[key] = _candidate_ids_for_test(
                ctx, info, test)
    return context_by_fragment, candidates_by_fragment, iter_rows


def standoff_axis_step(ctx: DynamicContext, axis: str,
                       context_nodes: list[Node],
                       test: NodeTest) -> list[Node]:
    """Evaluate a StandOff axis step for one context sequence (§3.3).

    The join is computed between the whole context sequence (S1) and the
    candidate sequence derived from the node test (S2) — StandOff steps
    are sequence-level joins, not per-node mappings (this matters for the
    reject anti-joins).
    """
    if not context_nodes:
        return []
    op = StandoffOp.from_name(axis)
    parts = _prepare(ctx, {0: context_nodes}, test, None)
    result = _run(ctx, op, parts[0], parts[1], parts[2])
    return _apply_test(result.get(0, []), test)


def standoff_axis_step_lifted(ctx: DynamicContext, axis: str,
                              context_nodes_per_iter: dict[int, list[Node]],
                              test: NodeTest, keep=None
                              ) -> LazyIterData | dict:
    """Loop-lifted StandOff axis step: all iterations in one join call.

    Returns a lazy per-iteration node mapping (the node-test post-filter
    runs inside the decode); the bulk evaluator wraps it in an
    :class:`~repro.relational.sequence.IterSeq` unchanged.  *keep* is
    the column filter of the step's predicates (see :func:`_run`).
    """
    if not context_nodes_per_iter:
        return {}
    op = StandoffOp.from_name(axis)
    parts = _prepare(ctx, context_nodes_per_iter, test, None)
    return _run(ctx, op, parts[0], parts[1], parts[2],
                post=lambda nodes: _apply_test(nodes, test), keep=keep)


def _apply_test(nodes: list[Node], test: NodeTest | None) -> list[Node]:
    """Post-filter by the step's node test.

    Redundant when the test was pushed down into the candidate sequence
    (every survivor already matches); required when the pushdown policy
    chose to run the join over the whole region index.
    """
    if test is None or test.kind == "node" \
            or (test.kind == "name" and test.name == "*"):
        return nodes
    from repro.xquery.axes import matches_test

    return [node for node in nodes if matches_test(node, test)]


def standoff_function(ctx: DynamicContext, op_name: str,
                      context_nodes: list[Node],
                      candidates: list[Node] | None) -> list[Node]:
    """The builtin-function form (Alternative 3 of §3.2)."""
    if not context_nodes:
        return []
    op = StandoffOp.from_name(op_name)
    parts = _prepare(ctx, {0: context_nodes}, None, candidates)
    result = _run(ctx, op, parts[0], parts[1], parts[2])
    return result.get(0, [])
