"""Vectorized StandOff join kernels (batched NumPy implementation).

The loop-lifted merge joins in :mod:`repro.core.mergejoin_ll` execute the
paper's Listing 1 as an interpreted row-at-a-time merge; this module
implements the same four joins as *batched* column operations so the hot
path runs at the speed the columnar ``start|end|id`` layout already
supports:

* the context is segmented per iteration (the ``iter`` column is the
  loop-lifting dimension); the segmentation and the per-segment running
  ``max(end)`` — exactly the quantity the active-items structure of
  Listing 1 maintains — are computed once per context and cached on it;
* per iteration, only a ``searchsorted`` **window** of the
  start-clustered candidate table is probed (candidates starting outside
  ``[first context start, max context end]`` can never match), so total
  work tracks the number of plausible (iteration, candidate) pairs
  instead of ``iterations x candidates``;
* containment/overlap are boolean-mask tests of candidate endpoints
  against segmented prefix maxima;
* results are built **columnar**: the matched pairs are canonicalized
  straight into a :class:`~repro.relational.columnar.ColumnarResult`
  (iters + CSR offsets|values) — no per-iteration ``dict[int, list]``
  materialization anywhere on the fast path.

Semantics are identical to :func:`repro.core.mergejoin_ll.ll_join` — the
differential suite (``tests/test_kernels_differential.py``) asserts
``columnar == vectorized == list == heap == naive`` on randomized
workloads (the columnar result's lazy dict view makes the comparison
direct).  The reference path is kept both as the oracle and as the
fallback: trace sinks (which observe Listing 1's add/replace/trim/emit
events) and pathological inputs whose candidate windows would
materialize too many pairs are delegated to ``ll_join``.
"""

from __future__ import annotations

import numpy as np

from repro.config import (
    AUTO_KERNEL_MIN_ROWS,
    FAMILY_STANDOFF,
    KERNEL_AUTO,
    KERNEL_VECTORIZED,
    KERNELS,
)
from repro.core.mergejoin_ll import (
    IterContext,
    JoinResult,
    TraceSink,
    ll_join,
)
from repro.core.naive import StandoffOp
from repro.core.region_index import RegionTable
from repro.relational.columnar import (
    INT64_BUDGET,
    ColumnarResult,
    complement,
    expand_ranges,
    run_starts,
    segment_ids,
    segmented_cummax,
)

#: Upper bound on materialized (iteration, candidate) probe pairs; above
#: this the kernel delegates to the row-at-a-time reference join rather
#: than risk a multi-gigabyte intermediate (quadratic overlap blowup).
PAIR_BUDGET = 32_000_000


class _PairBudgetExceeded(Exception):
    """Raised internally when window expansion would exceed PAIR_BUDGET."""


# ----------------------------------------------------------------------
# context segmentation (over the segmented primitives of
# repro.relational.columnar, shared with the Staircase kernels)
# ----------------------------------------------------------------------

class _Segments:
    """Per-iteration segmentation of a context (see _context_segments)."""

    __slots__ = ("uniq_iters", "seg_off", "seg_end", "starts", "ends",
                 "cummax", "first_order", "first_sorted", "maxend_order",
                 "maxend_sorted")

    def __init__(self, context: IterContext):
        order = np.argsort(context.iters, kind="stable")
        its = context.iters[order]
        self.starts = cs = context.starts[order]
        self.ends = ce = context.ends[order]
        self.seg_off = run_starts(its)
        self.seg_end = np.append(self.seg_off[1:], len(its))
        self.uniq_iters = its[self.seg_off]
        self.cummax = segmented_cummax(ce, self.seg_off)
        # The candidate windows are found by searchsorted probes with the
        # per-segment first start / max end; binary search degrades ~3x
        # on unsorted probes, so pre-sort them once (results are
        # scattered back through the inverse permutation per join call).
        first = cs[self.seg_off]
        maxend = self.cummax[self.seg_end - 1]
        self.first_order = np.argsort(first, kind="stable")
        self.first_sorted = first[self.first_order]
        self.maxend_order = np.argsort(maxend, kind="stable")
        self.maxend_sorted = maxend[self.maxend_order]


def _context_segments(context: IterContext) -> _Segments:
    """Segment a context per iteration, cached on the context.

    Rows are sorted by ``(iter, start)``; ``cummax`` is the segmented
    prefix maximum of ``end`` — exactly the quantity Listing 1's
    active-items structure tracks.  The cache is sound because
    :class:`IterContext` is frozen; it plays the role the
    start-clustered index plays for the candidate side.
    """
    cached = context.__dict__.get("_vec_segments")
    if cached is None:
        cached = _Segments(context)
        object.__setattr__(context, "_vec_segments", cached)
    return cached


def _segmented_searchsorted(values: np.ndarray, seg_off: np.ndarray,
                            seg_end: np.ndarray, probes: np.ndarray,
                            seg_of_probe: np.ndarray,
                            probe_bounds: np.ndarray) -> np.ndarray:
    """Per-segment ``searchsorted(..., side="right")`` in global indices.

    ``values`` is sorted within each segment; ``probes`` are grouped by
    segment (``probe_bounds`` delimits each segment's probe slice, which
    lets the generic path slice instead of mask).  Integer inputs take a
    single global ``searchsorted`` over composite ``segment * span +
    value`` keys.
    """
    nseg = len(seg_off)
    if nseg == 1:
        return np.searchsorted(values, probes, side="right")
    if values.dtype.kind in "iu" and probes.dtype.kind in "iu":
        vmin = int(min(values.min(), probes.min()))
        span = int(max(values.max(), probes.max())) - vmin + 2
        if nseg * span < INT64_BUDGET:
            comp_v = values.astype(np.int64, copy=True)
            comp_v -= vmin
            comp_v += segment_ids(len(values), seg_off) * span
            comp_p = probes.astype(np.int64, copy=True)
            comp_p -= vmin
            comp_p += seg_of_probe * span
            return np.searchsorted(comp_v, comp_p, side="right")
    out = np.empty(len(probes), np.int64)
    pb = probe_bounds.tolist()
    for s, (a, b) in enumerate(zip(seg_off.tolist(), seg_end.tolist())):
        pa, pz = pb[s], pb[s + 1]
        if pa < pz:
            out[pa:pz] = a + np.searchsorted(values[a:b], probes[pa:pz],
                                             side="right")
    return out


def _expand_windows(j0: np.ndarray, j1: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialize per-segment candidate windows ``[j0, j1)`` as flat
    (segment-of-pair, candidate-row-of-pair) arrays plus pair bounds —
    unless that would exceed :data:`PAIR_BUDGET`."""
    if int((j1 - j0).sum()) > PAIR_BUDGET:
        raise _PairBudgetExceeded
    return expand_ranges(np.arange(len(j0), dtype=np.int64), j0, j1)


def _candidate_windows(seg: _Segments, candidates: RegionTable, *,
                       wide: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per-iteration candidate windows ``[j0, j1)`` on the
    start-clustered candidate table.

    Only candidates starting in (roughly) [first context start, max
    context end] can satisfy the predicate against an iteration.
    Probes go through the cached sort order (sorted probes keep the
    binary search cache-friendly) and scatter back.
    """
    nseg = len(seg.uniq_iters)
    ks = candidates.starts
    lo_probes = seg.first_sorted
    if wide:
        lo_probes = lo_probes - candidates.max_length()
    j0 = np.empty(nseg, np.int64)
    j0[seg.first_order] = np.searchsorted(ks, lo_probes, side="left")
    j1 = np.empty(nseg, np.int64)
    j1[seg.maxend_order] = np.searchsorted(ks, seg.maxend_sorted,
                                           side="right")
    return j0, np.maximum(j0, j1)


def estimate_probe_pairs(context: IterContext, candidates: RegionTable,
                         *, wide: bool = False) -> int:
    """The (iteration, candidate) probe pairs the batched semi-join
    would materialize — the overlap-density signal ``kernel="auto"``
    feeds into :meth:`repro.config.KernelRegistry.select`.

    Two ``searchsorted`` probes per iteration over structures that are
    cached anyway (the context segmentation, the start-clustered
    candidate table), so the estimate costs a negligible fraction of
    either kernel.  The window sum saturates instead of wrapping: on
    pathological region counts an int64 overflow would turn the
    estimate negative and silently defeat the
    :data:`~repro.config.AUTO_KERNEL_MAX_PAIRS` guard.
    """
    if len(context) == 0 or len(candidates) == 0:
        return 0
    seg = _context_segments(context)
    j0, j1 = _candidate_windows(seg, candidates, wide=wide)
    return saturating_pair_count(j1 - j0)


def saturating_pair_count(counts: np.ndarray, *,
                          cap: int = INT64_BUDGET) -> int:
    """Sum non-negative int64 window counts, saturating at *cap*.

    A wrapped int64 sum would compare *below* any pair budget; the
    float64 pre-check is monotone and overflow-free, and every consumer
    only compares the result against budgets orders of magnitude below
    the cap, so precision above it is irrelevant.  Sums that pass the
    pre-check fit int64 exactly (partial sums of non-negative terms
    never exceed the total).
    """
    if len(counts) == 0:
        return 0
    if float(np.sum(counts, dtype=np.float64)) >= cap:
        return cap
    return int(counts.sum())


# ----------------------------------------------------------------------
# semi-joins
# ----------------------------------------------------------------------

def _select_pairs(context: IterContext, candidates: RegionTable, *,
                  wide: bool) -> tuple[np.ndarray, np.ndarray]:
    """Matched ``(iter value, candidate id)`` pairs for a semi-join.

    ``wide=False`` (containment): candidate ``[ks, ke]`` matches an
    iteration iff some context region of that iteration has
    ``start <= ks and end >= ke`` — i.e. the segmented prefix max of
    ``end`` over context rows with ``start <= ks`` reaches ``ke``.
    ``wide=True`` (overlap, inclusive bounds): the prefix runs over
    context rows with ``start <= ke`` and must reach ``ks``.
    """
    seg = _context_segments(context)
    nseg = len(seg.uniq_iters)
    cs, ce = seg.starts, seg.ends

    ke, kid = candidates.ends, candidates.ids
    ks = candidates.starts
    j0, j1 = _candidate_windows(seg, candidates, wide=wide)
    seg_of_pair, pair_j, offs = _expand_windows(j0, j1)
    if len(pair_j) == 0:
        return (np.empty(0, seg.uniq_iters.dtype), np.empty(0, kid.dtype))
    if wide:
        probe, lower = ke[pair_j], ks[pair_j]
    else:
        probe, lower = ks[pair_j], ke[pair_j]
    if nseg == len(cs):
        # One context row per iteration (the common `for $x in ...`
        # shape): the prefix max *is* the row, no position search needed.
        match = cs[seg_of_pair] <= probe
        match &= ce[seg_of_pair] >= lower
    else:
        pos = _segmented_searchsorted(cs, seg.seg_off, seg.seg_end,
                                      probe, seg_of_pair, offs)
        match = pos > seg.seg_off[seg_of_pair]
        match &= seg.cummax[np.maximum(pos - 1, 0)] >= lower
    return seg.uniq_iters[seg_of_pair[match]], kid[pair_j[match]]


def _narrow_multi_region(context: IterContext,
                         candidates: RegionTable) -> ColumnarResult:
    """∀-quantified containment for multi-region candidate areas.

    Mirrors :func:`repro.core.mergejoin_ll._narrow_multi_region`:
    region-level containment events are counted per
    ``(iteration, context area, candidate id)`` and a candidate matches
    when some single context area accounts for *all* of its regions.
    """
    cs, ce = context.starts, context.ends
    # Pair expansion is context-row-centric here: a context region
    # [cs, ce] can only contain candidate regions starting inside it.
    j0 = np.searchsorted(candidates.starts, cs, side="left")
    j1 = np.searchsorted(candidates.starts, ce, side="right")
    j1 = np.maximum(j0, j1)
    ctx_of_pair, pair_j, _offs = _expand_windows(j0, j1)
    if len(pair_j):
        contained = candidates.ends[pair_j] <= ce[ctx_of_pair]
        ctx_of_pair = ctx_of_pair[contained]
        pair_j = pair_j[contained]
    if len(pair_j) == 0:
        return ColumnarResult.empty()
    # Ordinal per context *area* (iter, ctx id) — several regions of one
    # area share an ordinal; lexsort-based so arbitrary id ranges work.
    order = np.lexsort((context.ids, context.iters))
    its_s = context.iters[order]
    cid_s = context.ids[order]
    new_area = np.empty(len(order), bool)
    new_area[0] = True
    np.logical_or(its_s[1:] != its_s[:-1], cid_s[1:] != cid_s[:-1],
                  out=new_area[1:])
    area_ord = np.empty(len(order), np.int64)
    area_ord[order] = np.cumsum(new_area) - 1
    area_iter = its_s[new_area]

    uniq_ids, inv_ids, id_counts = np.unique(
        candidates.ids, return_inverse=True, return_counts=True)
    n_ids = len(uniq_ids)
    # Count containment events per (area, candidate id) and keep the
    # (iteration, candidate) pairs whose count reaches the candidate's
    # region multiplicity.
    events = area_ord[ctx_of_pair] * n_ids + inv_ids[pair_j]
    uniq_ev, ev_counts = np.unique(events, return_counts=True)
    ev_area, ev_id = np.divmod(uniq_ev, n_ids)
    full = ev_counts == id_counts[ev_id]
    return ColumnarResult.from_pairs(area_iter[ev_area[full]],
                                     uniq_ids[ev_id[full]])


def vec_select_narrow(context: IterContext, candidates: RegionTable,
                      ) -> ColumnarResult:
    """Vectorized containment semi-join (batched Listing 1)."""
    if len(context) == 0 or len(candidates) == 0:
        return ColumnarResult.empty()
    try:
        if not candidates.has_multi_region_areas():
            # Each (iteration, candidate) pair is probed exactly once and
            # candidate ids are unique, so no dedup pass is needed.
            return ColumnarResult.from_pairs(
                *_select_pairs(context, candidates, wide=False),
                unique=True)
        return _narrow_multi_region(context, candidates)
    except _PairBudgetExceeded:
        return ColumnarResult.from_dict(
            ll_join(StandoffOp.SELECT_NARROW, context, candidates))


def vec_select_wide(context: IterContext, candidates: RegionTable,
                    ) -> ColumnarResult:
    """Vectorized overlap semi-join (∃∃ over regions, any multiplicity)."""
    if len(context) == 0 or len(candidates) == 0:
        return ColumnarResult.empty()
    try:
        return ColumnarResult.from_pairs(
            *_select_pairs(context, candidates, wide=True))
    except _PairBudgetExceeded:
        return ColumnarResult.from_dict(
            ll_join(StandoffOp.SELECT_WIDE, context, candidates))


# ----------------------------------------------------------------------
# anti-joins — per-iteration complements via the shared columnar helper
# ----------------------------------------------------------------------

def vec_reject_narrow(context: IterContext, candidates: RegionTable,
                      ) -> ColumnarResult:
    """Vectorized containment anti-join."""
    if len(context) == 0:
        return ColumnarResult.empty()
    return complement(vec_select_narrow(context, candidates),
                      context.iterations(), candidates.unique_ids())


def vec_reject_wide(context: IterContext, candidates: RegionTable,
                    ) -> ColumnarResult:
    """Vectorized overlap anti-join."""
    if len(context) == 0:
        return ColumnarResult.empty()
    return complement(vec_select_wide(context, candidates),
                      context.iterations(), candidates.unique_ids())


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

_VEC_DISPATCH = {
    StandoffOp.SELECT_NARROW: vec_select_narrow,
    StandoffOp.SELECT_WIDE: vec_select_wide,
    StandoffOp.REJECT_NARROW: vec_reject_narrow,
    StandoffOp.REJECT_WIDE: vec_reject_wide,
}


def vec_join(op: StandoffOp, context: IterContext,
             candidates: RegionTable, *,
             active_structure: str = "list",
             trace: TraceSink | None = None
             ) -> ColumnarResult | JoinResult:
    """Dispatch a vectorized StandOff join by operator.

    Signature-compatible with :func:`~repro.core.mergejoin_ll.ll_join`;
    returns a :class:`~repro.relational.columnar.ColumnarResult` (whose
    lazy dict view is interchangeable with the classical ``JoinResult``).
    A trace sink forces the reference path (the batched kernel has no
    per-row events to report), which returns the plain dict.
    """
    if trace is not None:
        return ll_join(op, context, candidates,
                       active_structure=active_structure, trace=trace)
    return _VEC_DISPATCH[op](context, candidates)


def kernel_join(op: StandoffOp, context: IterContext,
                candidates: RegionTable, *,
                kernel: str = "ll",
                active_structure: str = "list",
                trace: TraceSink | None = None
                ) -> ColumnarResult | JoinResult:
    """Run a loop-lifted StandOff join under the selected kernel.

    ``kernel`` is ``"ll"`` (reference merge), ``"vectorized"``, or
    ``"auto"`` (pick ``ll`` below the input-size threshold where NumPy
    call overhead dominates, or when the probe-pair density estimate
    says the batched kernel would exhaust its pair budget and delegate
    back anyway); tracing auto-falls back to ``ll``.  Selection goes
    through the unified registry —
    :meth:`repro.config.KernelRegistry.select`.
    """
    probe_pairs = None
    if kernel == KERNEL_AUTO and trace is None \
            and len(context) + len(candidates) >= AUTO_KERNEL_MIN_ROWS:
        wide = op in (StandoffOp.SELECT_WIDE, StandoffOp.REJECT_WIDE)
        probe_pairs = estimate_probe_pairs(context, candidates, wide=wide)
    kernel = KERNELS.select(FAMILY_STANDOFF, kernel,
                            context_rows=len(context),
                            candidate_rows=len(candidates),
                            probe_pairs=probe_pairs,
                            tracing=trace is not None)
    if kernel == KERNEL_VECTORIZED:
        return vec_join(op, context, candidates)
    return ll_join(op, context, candidates,
                   active_structure=active_structure, trace=trace)
