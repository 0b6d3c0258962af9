"""Batched loop-lifted Staircase Join family (columnar results).

The paper's §4.1/§4.6 point is that loop-lifted Staircase Join and
loop-lifted StandOff MergeJoin are the *same* trick applied to two join
families.  :mod:`repro.core.kernels_vec` is the batched NumPy StandOff
side; this module is the Staircase side: every tree axis the shredded
pre/size encoding supports, computed for **all** iterations of a
for-loop in one batch of column operations, producing a
:class:`~repro.relational.columnar.ColumnarResult` natively.

The context is ``(iter, pre)`` pairs; per axis:

* **descendant** — the genuine Staircase Join: rows are segmented per
  iteration, nested context windows are pruned with a segmented prefix
  max over window ends, and each surviving window takes a
  ``searchsorted`` slice of the sorted candidate pool (or emits the
  implicit pre range directly — no ``arange(len(doc))`` materialization
  when the pool is unrestricted).  ``or_self`` widens the window to
  include the context pre itself;
* **ancestor** — a level-synchronous parent-column climb: all context
  rows step to their parent per round, so the Python-level loop runs
  ``O(tree depth)`` times regardless of context size;
* **child** — a sorted-merge join of ``parent[pool]`` against the
  distinct context pres, expanded per iteration group;
* **following** / **preceding** — one threshold per iteration (the
  tree property collapses the union over context nodes to a min/max):
  ``following`` is the pool suffix past the smallest context subtree
  end, ``preceding`` the pool prefix (ordered by subtree end) before
  the largest context pre.  Attribute context nodes anchor at their
  owner element — deduplicated at the anchor boundary — as in the DOM
  walk;
* **following-sibling** / **preceding-sibling** — the candidate pool is
  re-clustered by owner (stable argsort of ``parent[pool]``), then each
  context row takes a ``searchsorted`` window of its owner's contiguous
  child run, split at the anchor pre.  Attribute context nodes have no
  siblings, attribute pool rows are never siblings; both drop out up
  front.

Within one iteration, surviving descendant windows are disjoint and
ascending, so the matched pairs leave the expansion already in
``(iter, pre)``-lexicographic order and duplicate-free — canonicalizing
into CSR form costs one boundary cut, no sort.

:func:`staircase_join` dispatches on the kernel name between these
batched kernels (``vectorized``, the serving kernel) and the
dict-shaped reference path
(:func:`repro.staircase.loop_lifted.ll_axis_join`, ``ll``) exactly
like :func:`repro.core.kernels_vec.kernel_join` does for StandOff
joins.
The differential suite (``tests/test_staircase_vec.py``) asserts
``vectorized == ll == iterated`` on all axes.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.config import (
    DEFAULT_KERNEL,
    DEFAULT_SHARD_MIN_ROWS,
    DEFAULT_WORKERS,
    EXECUTOR_PROCESS,
    KERNEL_LL,
    check_kernel,
    check_staircase_axis,
    normalize_executor,
    normalize_workers,
)
from repro.relational.columnar import (
    ColumnarResult,
    expand_ranges,
    run_starts,
    segmented_cummax,
)
from repro.staircase.staircase import anchor_pres
from repro.xmldb.shred import ShreddedDocument

#: A loop-lifted staircase context: ``(iter, pre)`` pairs, any order.
ContextPairs = Iterable[tuple[int, int]]


# ----------------------------------------------------------------------
# context and pool helpers (the segmented primitives themselves live in
# repro.relational.columnar, shared with the StandOff kernels)
# ----------------------------------------------------------------------

def _context_arrays(context: ContextPairs
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Unique ``(iter, pre)`` pairs as columns sorted by (iter, pre).

    A ``(its, pres)`` tuple of arrays is taken as already canonical —
    the sharded fan-out canonicalizes once and shares the result
    across shard jobs instead of re-sorting the context per shard.
    """
    if isinstance(context, tuple):
        return context
    if isinstance(context, np.ndarray):
        rows = context
    else:
        rows = np.asarray(list(context), dtype=np.int64)
    if rows.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    its, pres = rows[:, 0], rows[:, 1]
    order = np.lexsort((pres, its))
    its, pres = its[order], pres[order]
    keep = np.empty(len(its), bool)
    keep[0] = True
    np.logical_or(its[1:] != its[:-1], pres[1:] != pres[:-1],
                  out=keep[1:])
    return its[keep], pres[keep]


def _pool(doc: ShreddedDocument,
          candidates: np.ndarray | None) -> np.ndarray:
    """The sorted candidate pre pool (all rows when unrestricted)."""
    if candidates is None:
        return doc.pre
    return np.asarray(candidates, dtype=np.int64)


def _no_or_self(axis: str, or_self: bool) -> None:
    if or_self:
        raise ValueError(f"the {axis} axis has no or-self variant")


def _anchored_segments(doc: ShreddedDocument, its: np.ndarray,
                       pres: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anchor a canonical context and dedupe at the anchor boundary.

    Attribute pres map to their owner element, which can collapse
    distinct context rows of one iteration onto the same anchor (two
    attributes of one element); the duplicates are removed so the
    following/preceding kernels never see — and can never re-emit for —
    a repeated anchor.  Anchoring preserves the (iter, pre) sort order
    (an attribute's owner precedes it, and no other node sits between
    an element and its attributes), so the dedupe is one adjacent
    comparison.  Returns ``(iters, anchors, segment offsets)``.
    """
    anchors = anchor_pres(doc, pres)
    if len(its) > 1:
        keep = np.empty(len(its), bool)
        keep[0] = True
        np.logical_or(its[1:] != its[:-1], anchors[1:] != anchors[:-1],
                      out=keep[1:])
        if not keep.all():
            its, anchors = its[keep], anchors[keep]
    return its, anchors, run_starts(its)


def _climb(parent: np.ndarray, iters: np.ndarray, start: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """Level-synchronous parent-column climb from *start*.

    All rows step to their parent per round (the Python-level loop runs
    ``O(tree depth)`` times regardless of row count); returns the
    emitted ``(iter, ancestor)`` pair columns, possibly empty.
    """
    pair_iters: list[np.ndarray] = []
    pair_vals: list[np.ndarray] = []
    cur_i, cur_v = iters, parent[start]
    while True:
        live = cur_v >= 0
        if not live.any():
            break
        cur_i, cur_v = cur_i[live], cur_v[live]
        pair_iters.append(cur_i)
        pair_vals.append(cur_v)
        cur_v = parent[cur_v]
    if not pair_iters:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(pair_iters), np.concatenate(pair_vals)


def _locate_sorted(pool: np.ndarray, values: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``(insertion index, found mask)`` of *values* in the sorted
    unique *pool* — the shared searchsorted-membership idiom."""
    if len(pool) == 0:
        return (np.zeros(len(values), np.int64),
                np.zeros(len(values), bool))
    idx = np.searchsorted(pool, values)
    ok = idx < len(pool)
    ok &= pool[np.minimum(idx, len(pool) - 1)] == values
    return idx, ok


def in_sorted(pool: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership mask of *values* in the sorted unique *pool*."""
    return _locate_sorted(pool, values)[1]


# ----------------------------------------------------------------------
# axis kernels
# ----------------------------------------------------------------------

def vec_descendant(doc: ShreddedDocument, context: ContextPairs,
                   candidates: np.ndarray | None = None, *,
                   or_self: bool = False) -> ColumnarResult:
    """Batched loop-lifted descendant step (Staircase Join proper).

    :param context: ``(iter, pre)`` pairs, any order.
    :param candidates: optional sorted candidate pre ranks (selection
        pushdown); ``None`` scans the implicit ``[0, len(doc))`` range.
    :param or_self: include the context pre itself when it is in the
        candidate pool (the descendant-or-self window ``[pre, end]``).
    """
    its, pres = _context_arrays(context)
    if len(its) == 0:
        return ColumnarResult.empty()
    seg_off = run_starts(its)
    ends = pres + doc.size[pres]
    # Segmented pruning: within an iteration (rows ascending on pre), a
    # context window nested in an earlier window of the same iteration
    # contributes nothing new — drop rows whose pre is covered by the
    # exclusive prefix max of the window ends.
    horizon = np.empty_like(ends)
    horizon[1:] = segmented_cummax(ends, seg_off)[:-1]
    horizon[seg_off] = -1
    keep = pres > horizon
    its_k, pres_k, ends_k = its[keep], pres[keep], ends[keep]
    lo = pres_k if or_self else pres_k + 1
    if candidates is None:
        # The implicit-range scan: the window indices are the pres.
        iters, values, _ = expand_ranges(its_k, lo, ends_k + 1)
    else:
        cand = np.asarray(candidates, dtype=np.int64)
        j0 = np.searchsorted(cand, lo, side="left")
        j1 = np.searchsorted(cand, ends_k, side="right")
        iters, idx, _ = expand_ranges(its_k, j0, np.maximum(j0, j1))
        values = cand[idx]
    # Surviving windows are disjoint + ascending per iteration, so the
    # pairs are already (iter, value)-sorted and duplicate-free.
    return ColumnarResult.from_pairs(iters, values, presorted=True,
                                     unique=True)


def vec_ancestor(doc: ShreddedDocument, context: ContextPairs,
                 candidates: np.ndarray | None = None, *,
                 or_self: bool = False) -> ColumnarResult:
    """Batched ancestor step: level-synchronous parent-column climb."""
    its, pres = _context_arrays(context)
    if len(its) == 0:
        return ColumnarResult.empty()
    iters, values = _climb(doc.parent, its, pres)
    if or_self:
        iters = np.concatenate((its, iters))
        values = np.concatenate((pres, values))
    if candidates is not None:
        ok = in_sorted(np.asarray(candidates, np.int64), values)
        iters, values = iters[ok], values[ok]
    return ColumnarResult.from_pairs(iters, values)


def vec_child(doc: ShreddedDocument, context: ContextPairs,
              candidates: np.ndarray | None = None, *,
              or_self: bool = False) -> ColumnarResult:
    """Batched child step: ``parent[pool]`` merged with the context."""
    _no_or_self("child", or_self)
    its, pres = _context_arrays(context)
    if len(its) == 0:
        return ColumnarResult.empty()
    pool = _pool(doc, candidates)
    if len(pool) == 0:
        return ColumnarResult.empty()
    par = doc.parent[pool]
    # Group the context by pre: a pool entry whose parent matches a
    # distinct context pre joins with every iteration in that group.
    order = np.lexsort((its, pres))
    pres_g, its_g = pres[order], its[order]
    g_off = run_starts(pres_g)
    uniq = pres_g[g_off]
    g_sizes = np.diff(np.append(g_off, len(pres_g)))
    idx, ok = _locate_sorted(uniq, par)
    matched = pool[ok]
    groups = idx[ok]
    counts = g_sizes[groups]
    total = int(counts.sum())
    if total == 0:
        return ColumnarResult.empty()
    offs = np.concatenate(([0], np.cumsum(counts)))
    pos = np.arange(total, dtype=np.int64) \
        - np.repeat(offs[:-1] - g_off[groups], counts)
    # A child has one parent, and (pre, iter) groups are deduplicated,
    # so no (iter, child) pair repeats.
    return ColumnarResult.from_pairs(its_g[pos],
                                     np.repeat(matched, counts),
                                     unique=True)


def vec_following(doc: ShreddedDocument, context: ContextPairs,
                  candidates: np.ndarray | None = None, *,
                  or_self: bool = False) -> ColumnarResult:
    """Batched following step: pool suffix past the smallest subtree end
    of each iteration (attributes anchor at their owner element)."""
    _no_or_self("following", or_self)
    its, pres = _context_arrays(context)
    if len(its) == 0:
        return ColumnarResult.empty()
    its, anchors, seg_off = _anchored_segments(doc, its, pres)
    sub_end = anchors + doc.size[anchors]
    thresholds = np.minimum.reduceat(sub_end, seg_off)
    pool = _pool(doc, candidates)
    j0 = np.searchsorted(pool, thresholds, side="right")
    j1 = np.full(len(j0), len(pool), np.int64)
    iters, idx, _ = expand_ranges(its[seg_off], j0, j1)
    return ColumnarResult.from_pairs(iters, pool[idx], presorted=True,
                                     unique=True)


def vec_preceding(doc: ShreddedDocument, context: ContextPairs,
                  candidates: np.ndarray | None = None, *,
                  or_self: bool = False) -> ColumnarResult:
    """Batched preceding step.

    ``{q : pre(q) + size(q) < t}`` (*t* the largest context pre of the
    iteration, attributes anchored at their owner) equals the pre-rank
    prefix ``[0, t)`` minus the ancestors of the node at *t* — the only
    windows starting before *t* that end at or after it.  Emitting the
    contiguous prefix keeps the pairs presorted (no output-sized
    lexsort); the ancestor chains — at most tree-depth entries per
    iteration — are then deleted by binary search.
    """
    _no_or_self("preceding", or_self)
    its, pres = _context_arrays(context)
    if len(its) == 0:
        return ColumnarResult.empty()
    its, anchors, seg_off = _anchored_segments(doc, its, pres)
    thresholds = np.maximum.reduceat(anchors, seg_off)
    uniq_its = its[seg_off]
    pool = _pool(doc, candidates)
    j1 = np.searchsorted(pool, thresholds, side="left")
    iters, idx, _ = expand_ranges(uniq_its, np.zeros(len(j1), np.int64),
                                  j1)
    values = pool[idx]
    if len(values):
        span = len(doc) + 1
        keys = iters * span + values
        chain_i, chain_v = _climb(doc.parent, uniq_its, thresholds)
        if len(chain_v):
            pos, ok = _locate_sorted(keys, chain_i * span + chain_v)
            if ok.any():
                keep = np.ones(len(keys), bool)
                keep[pos[ok]] = False
                iters, values = iters[keep], values[keep]
    return ColumnarResult.from_pairs(iters, values, presorted=True,
                                     unique=True)


def _vec_siblings(doc: ShreddedDocument, context: ContextPairs,
                  candidates: np.ndarray | None, *,
                  following: bool) -> ColumnarResult:
    """Shared batched sibling step: per-iteration parent-column lookup
    plus ``searchsorted`` window slicing within the owner's child span.

    The siblings of *p* are exactly the nodes in
    ``(parent_pre, parent_pre + size(parent)]`` with
    ``parent == parent_pre``, split at the anchor.  The candidate pool
    is re-clustered by owner (a stable argsort of ``parent[pool]``
    keeps pres ascending within each owner group), so each context row
    takes one composite-key ``searchsorted`` slice of its owner's
    contiguous child run — before or after the anchor pre.  Attribute
    context nodes have no siblings (they are not children of their
    owner), and attribute pool rows are never siblings of anything;
    both drop out up front, exactly as in the DOM walk.
    """
    from repro.xmldb.dom import Attr

    its, pres = _context_arrays(context)
    if len(its) == 0:
        return ColumnarResult.empty()
    live = (doc.kind[pres] != Attr.kind) & (doc.parent[pres] >= 0)
    its, pres = its[live], pres[live]
    if len(its) == 0:
        return ColumnarResult.empty()
    owners = doc.parent[pres]
    pool = _pool(doc, candidates)
    pool_par = doc.parent[pool]
    ok = (pool_par >= 0) & (doc.kind[pool] != Attr.kind)
    sib, sib_par = pool[ok], pool_par[ok]
    if len(sib) == 0:
        return ColumnarResult.empty()
    # Cluster the sibling pool by owner; the stable sort keeps pres
    # ascending inside each owner's run, so the composite keys are
    # globally sorted and one searchsorted per bound suffices.
    order = np.argsort(sib_par, kind="stable")
    sib, sib_par = sib[order], sib_par[order]
    span = np.int64(len(doc) + 1)
    keys = sib_par * span + sib
    if following:
        j0 = np.searchsorted(keys, owners * span + pres, side="right")
        j1 = np.searchsorted(keys, (owners + 1) * span, side="left")
    else:
        j0 = np.searchsorted(keys, owners * span, side="left")
        j1 = np.searchsorted(keys, owners * span + pres, side="left")
    iters, idx, _ = expand_ranges(its, j0, j1)
    # Context rows sharing an owner within one iteration emit
    # overlapping windows — canonicalization sorts and dedupes.
    return ColumnarResult.from_pairs(iters, sib[idx])


def vec_following_sibling(doc: ShreddedDocument, context: ContextPairs,
                          candidates: np.ndarray | None = None, *,
                          or_self: bool = False) -> ColumnarResult:
    """Batched following-sibling step: the suffix of the owner's child
    span past the anchor's subtree."""
    _no_or_self("following-sibling", or_self)
    return _vec_siblings(doc, context, candidates, following=True)


def vec_preceding_sibling(doc: ShreddedDocument, context: ContextPairs,
                          candidates: np.ndarray | None = None, *,
                          or_self: bool = False) -> ColumnarResult:
    """Batched preceding-sibling step: the owner's child span before
    the anchor."""
    _no_or_self("preceding-sibling", or_self)
    return _vec_siblings(doc, context, candidates, following=False)


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

VEC_STAIRCASE_AXES = {
    "descendant": vec_descendant,
    "ancestor": vec_ancestor,
    "child": vec_child,
    "following": vec_following,
    "preceding": vec_preceding,
    "following-sibling": vec_following_sibling,
    "preceding-sibling": vec_preceding_sibling,
}


def vec_staircase_join(axis: str, doc: ShreddedDocument,
                       context: ContextPairs,
                       candidates: np.ndarray | None = None, *,
                       or_self: bool = False) -> ColumnarResult:
    """Dispatch a batched staircase axis step by axis name."""
    check_staircase_axis(axis)
    return VEC_STAIRCASE_AXES[axis](doc, context, candidates,
                                    or_self=or_self)


def resolve_staircase_pool(shredded: ShreddedDocument,
                           desc: tuple) -> np.ndarray:
    """The candidate pre pool a picklable descriptor names — the
    single source of a step's pool: the bulk evaluator resolves it in
    the parent, process-pool workers resolve the same tuple against
    their mapped shred, so both sides see element-for-element the same
    array without shipping it.
    """
    kind = desc[0]
    if kind == "all":
        return shredded.pre
    if kind == "all-elements":
        return shredded.all_element_pres()
    if kind == "name":
        return shredded.elements_matching(desc[1])
    if kind == "kind":
        return shredded.pres_of_kind(desc[1])
    if kind == "non-attr":
        return shredded.non_attribute_pres()
    raise ValueError(f"unknown candidate descriptor {desc!r}")


def staircase_join(axis: str, doc: ShreddedDocument,
                   context: ContextPairs,
                   candidates: np.ndarray | None = None, *,
                   or_self: bool = False,
                   kernel: str = DEFAULT_KERNEL,
                   workers=DEFAULT_WORKERS,
                   shard_min_rows: int = DEFAULT_SHARD_MIN_ROWS,
                   executor: str | None = None,
                   candidate_desc: tuple | None = None
                   ) -> ColumnarResult | dict[int, list[int]]:
    """Run a loop-lifted staircase axis step under the named kernel.

    The staircase counterpart of
    :func:`repro.core.kernels_vec.kernel_join`: ``"vectorized"`` (the
    default) runs the batched columnar kernels, ``"ll"`` the
    dict-shaped reference path
    (:func:`repro.staircase.loop_lifted.ll_axis_join`).  The ``ll``
    reference path never shards (it exists to be the deterministic
    oracle).  *context* is ``(iter, pre)`` pairs, or the
    canonical ``(its, pres)`` column pair (:func:`_context_arrays`) a
    column-backed node sequence hands over, on every route.

    ``workers`` fans the batched kernel out by the one scheme of
    :mod:`repro.exec.sharding`: the canonical ``(iter, pre)`` context
    is cut between iterations into shards of at least *shard_min_rows*
    context rows, every shard runs the whole candidate pool against its
    own iterations, and the shard results concatenate block by block —
    array-identical to the single call for every axis.  ``"serial"``
    (the default), a one-iteration context and a context too small to
    split plan one shard and run inline, whatever the executor.

    ``executor="process"`` runs the shards on worker processes
    (:mod:`repro.exec.procpool`) when the document's columns live in a
    mapped store (``doc.store_ref``) and the caller supplied the
    ``candidate_desc`` of *candidates* (:func:`resolve_staircase_pool`);
    other jobs run on the thread pool, so the executor never changes
    answers, only where the shards run.
    """
    from repro.exec.sharding import run_by_iteration
    from repro.staircase.loop_lifted import ll_axis_join

    if check_kernel(kernel) == KERNEL_LL:
        if isinstance(context, tuple):
            context = zip(context[0].tolist(), context[1].tolist())
        return ll_axis_join(doc, axis, list(context), candidates,
                            or_self=or_self)
    if normalize_workers(workers) <= 1:     # skip the canonicalization
        return vec_staircase_join(axis, doc, context, candidates,
                                  or_self=or_self)
    remote = None
    if normalize_executor(executor) == EXECUTOR_PROCESS \
            and doc.store_ref is not None and candidate_desc is not None:
        from repro.exec.procpool import staircase_shard

        remote = (staircase_shard,
                  (doc.store_ref, axis, candidate_desc, or_self))
    # Canonicalize the context (sort + dedup) once; every shard takes a
    # slice of the columns.
    its, pres = _context_arrays(context)
    return run_by_iteration(
        lambda its, pres: vec_staircase_join(axis, doc, (its, pres),
                                             candidates, or_self=or_self),
        its, pres, workers, shard_min_rows=shard_min_rows, remote=remote)
