"""Loop-lifted StandOff MergeJoin (paper §4.4–4.5, Listing 1, Figure 4).

The input context is an ``iter|id|start|end`` table sorted on ``start``
(the ``iter`` column separates the context sequences of the different
iterations of the enclosing XQuery for-loop); the candidate sequence is a
start-clustered :class:`~repro.core.region_index.RegionTable` (usually the
region index itself, or an id-intersection of it).  One sequential pass
over both inputs computes the StandOff join for *all* iterations.

Algorithms implemented here:

* :func:`ll_select_narrow` — containment semi-join (paper Listing 1);
* :func:`ll_select_wide`   — overlap semi-join (symmetric two-sided merge);
* :func:`ll_reject_narrow`, :func:`ll_reject_wide` — anti-joins, computed
  as per-iteration complements of the corresponding semi-joins;
* :func:`ll_join` — dispatch by :class:`~repro.core.naive.StandoffOp`.

The *active context items* structure is configurable (``"list"`` — a
sorted list with mid-deletion, the paper's implementation — or ``"heap"``
— the lazy-deletion heap suggested in §5 for distributions that make the
list grow long).

**Erratum note.** Listing 1's printed skip condition (line 14,
``tmp.end <= context[i].end``) would in general skip context items that
are *not* contained in their own iteration's active item and thus lose
results (the Figure 4 trace does not exercise the difference).  We
implement the semantics the surrounding text describes: a context item is
skipped only when it is completely contained in the active item *of the
same iteration*; otherwise it replaces that item (safe, because a
same-iteration item that is not contained necessarily has a larger end,
and all candidates it could newly match start at or after its own start).
See ``tests/test_listing1_trace.py``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.naive import StandoffOp
from repro.core.region_index import RegionTable, _position_column
from repro.errors import RegionError
from repro.relational.columnar import complement

#: A trace event: (kind, *payload).  Used by the Figure 4 trace test.
TraceEvent = tuple
TraceSink = Callable[[TraceEvent], None]

#: Join result: iteration -> unique candidate node ids in ascending
#: (= document) order.
JoinResult = dict[int, list[int]]


@dataclass(frozen=True)
class IterContext:
    """The loop-lifted context input: ``iter|id|start|end`` sorted on start.

    ``iters`` are logical iteration numbers; ``ids`` are node ids; one row
    per region (multi-region context areas contribute several rows with
    the same ``(iter, id)``).
    """

    iters: np.ndarray
    ids: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    @classmethod
    def from_rows(cls, rows) -> "IterContext":
        """Build from ``(iter, id, start, end)`` tuples; sorts on start
        (see :meth:`from_columns`) after rejecting any region with
        ``start > end``."""
        rows = list(rows)
        if not rows:
            return cls.from_columns(*(np.empty(0, np.int64),) * 4)
        it, ids, st, en = zip(*rows)
        st = _position_column(st)
        en = _position_column(en)
        if np.any(st > en):
            raise RegionError("context contains a region with start > end")
        return cls.from_columns(np.asarray(it, np.int64),
                                np.asarray(ids, np.int64), st, en)

    @classmethod
    def from_columns(cls, iters: np.ndarray, ids: np.ndarray,
                     starts: np.ndarray, ends: np.ndarray
                     ) -> "IterContext":
        """Build from parallel ``iter|id|start|end`` columns; sorts on
        start.

        Exact duplicate rows are dropped: a repeated (iter, node, region)
        is semantically idempotent but would double-count in the
        ∀-quantified multi-region containment pass.  Sort and dedup are
        columnar (``np.lexsort`` + adjacency masks).
        """
        order = np.lexsort((ids, iters, ends, starts))
        it, ids, st, en = iters[order], ids[order], starts[order], \
            ends[order]
        if len(it) > 1:
            keep = np.empty(len(it), bool)
            keep[0] = True
            np.logical_or.reduce(
                [it[1:] != it[:-1], ids[1:] != ids[:-1],
                 st[1:] != st[:-1], en[1:] != en[:-1]], out=keep[1:])
            if not keep.all():
                it, ids, st, en = it[keep], ids[keep], st[keep], en[keep]
        return cls(it, ids, st, en)

    @classmethod
    def single(cls, table: RegionTable, iteration: int = 0) -> "IterContext":
        """Wrap a plain region table as the context of one iteration."""
        n = len(table)
        return cls(np.full(n, iteration, np.int64), table.ids,
                   table.starts, table.ends)

    def __len__(self) -> int:
        return len(self.iters)

    def iterations(self) -> list[int]:
        """Distinct iteration numbers present, ascending."""
        return [int(i) for i in np.unique(self.iters)]


class _ActiveList:
    """Active context items, one per iteration, sorted ascending on end.

    This is the paper's structure: a list from which elements may be
    deleted in the middle (on same-iteration replacement).  Entries are
    ``(end, iter, ctx_id)`` tuples; ``by_iter`` maps an iteration to its
    single live entry.
    """

    __slots__ = ("entries", "by_iter")

    def __init__(self) -> None:
        self.entries: list[tuple] = []      # ascending by end
        self.by_iter: dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self.by_iter)

    def get(self, iteration: int):
        return self.by_iter.get(iteration)

    def add(self, end, iteration: int, ctx_id: int) -> None:
        entry = (end, iteration, ctx_id)
        insort(self.entries, entry)
        self.by_iter[iteration] = entry

    def replace(self, iteration: int, end, ctx_id: int) -> None:
        old = self.by_iter[iteration]
        idx = bisect_left(self.entries, old)
        del self.entries[idx]
        self.add(end, iteration, ctx_id)

    def trim(self, threshold) -> list[tuple]:
        """Drop entries with ``end < threshold``; return them (for traces)."""
        cut = bisect_left(self.entries, (threshold,))
        if cut == 0:
            return []
        dropped = self.entries[:cut]
        del self.entries[:cut]
        for entry in dropped:
            if self.by_iter.get(entry[1]) is entry:
                del self.by_iter[entry[1]]
        return dropped

    def iters_with_end_at_least(self, threshold) -> list[tuple]:
        """Entries whose end >= threshold (the containment emitters)."""
        idx = bisect_left(self.entries, (threshold,))
        return self.entries[idx:]

    def all_entries(self) -> list[tuple]:
        return list(self.entries)


class _ActiveHeap:
    """Heap-based active set (paper §5 suggestion), lazy deletion.

    A min-heap on ``end`` drives expiry; ``by_iter`` is authoritative for
    liveness.  Containment emission scans all live entries (no order), so
    this trades emission cost for O(log n) maintenance — the ablation
    benchmark compares the two under long active lists.
    """

    __slots__ = ("heap", "by_iter")

    def __init__(self) -> None:
        self.heap: list[tuple] = []
        self.by_iter: dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self.by_iter)

    def get(self, iteration: int):
        return self.by_iter.get(iteration)

    def add(self, end, iteration: int, ctx_id: int) -> None:
        entry = (end, iteration, ctx_id)
        heapq.heappush(self.heap, entry)
        self.by_iter[iteration] = entry

    def replace(self, iteration: int, end, ctx_id: int) -> None:
        # Old entry stays in the heap; it becomes stale and is skipped on pop.
        self.add(end, iteration, ctx_id)

    def trim(self, threshold) -> list[tuple]:
        dropped = []
        while self.heap and self.heap[0][0] < threshold:
            entry = heapq.heappop(self.heap)
            if self.by_iter.get(entry[1]) is entry:
                del self.by_iter[entry[1]]
                dropped.append(entry)
        return dropped

    def iters_with_end_at_least(self, threshold) -> list[tuple]:
        return [e for e in self.by_iter.values() if e[0] >= threshold]

    def all_entries(self) -> list[tuple]:
        return list(self.by_iter.values())


_ACTIVE_STRUCTURES = {"list": _ActiveList, "heap": _ActiveHeap}


def _make_active(active_structure: str):
    try:
        return _ACTIVE_STRUCTURES[active_structure]()
    except KeyError:
        raise ValueError(
            f"unknown active structure {active_structure!r}; "
            f"expected one of {sorted(_ACTIVE_STRUCTURES)}"
        ) from None


def _sorted_unique_per_iter(pairs) -> JoinResult:
    """Group raw ``(iter, node_id)`` emissions into the canonical result."""
    grouped: dict[int, set[int]] = {}
    for it, node_id in pairs:
        grouped.setdefault(it, set()).add(node_id)
    return {it: sorted(ids) for it, ids in grouped.items()}


# ----------------------------------------------------------------------
# select-narrow (containment semi-join) — paper Listing 1
# ----------------------------------------------------------------------

def ll_select_narrow(context: IterContext, candidates: RegionTable, *,
                     active_structure: str = "list",
                     trace: TraceSink | None = None) -> JoinResult:
    """Loop-lifted containment semi-join.

    For every iteration, returns the candidate node ids whose *every*
    region is contained in a region of some context area of that
    iteration.  Single-region candidates take the fast path equivalent to
    the paper's Listing 1 (one active item per iteration, containment
    skip / replacement); multi-region candidates use the area-aware
    general pass (active items keyed per context area) followed by the
    ∀-quantifier post-processing the paper alludes to in §4.5.
    """
    if len(context) == 0 or len(candidates) == 0:
        return {}
    n_unique = len(np.unique(candidates.ids))
    if n_unique == len(candidates):
        if active_structure == "list" and trace is None:
            return _narrow_single_region_fast(context, candidates)
        pairs = _narrow_single_region(context, candidates,
                                      active_structure, trace)
        return _sorted_unique_per_iter(pairs)
    return _narrow_multi_region(context, candidates,
                                candidates.multiplicity(),
                                active_structure)


def _narrow_single_region_fast(context: IterContext,
                               candidates: RegionTable) -> JoinResult:
    """Listing 1 with the list-based active structure inlined.

    Semantically identical to :func:`_narrow_single_region` with
    ``active_structure="list"``; the sorted active list and its per-iter
    map live in local variables so the per-candidate trim/emit steps are
    free of method-call overhead (this is the loop whose cost §4.6
    compares against loop-lifted Staircase Join).
    """
    c_iters = context.iters.tolist()
    c_ids = context.ids.tolist()
    c_starts = context.starts.tolist()
    c_ends = context.ends.tolist()
    k_starts = candidates.starts.tolist()
    k_ends = candidates.ends.tolist()
    k_ids = candidates.ids.tolist()

    entries: list[tuple] = []        # (end, iter, ctx_id), ascending
    by_iter: dict[int, tuple] = {}
    result: dict[int, list[int]] = {}
    n_ctx, n_cand = len(c_iters), len(k_starts)
    i = j = 0

    first_start = c_starts[0]
    while j < n_cand and k_starts[j] < first_start:
        j += 1

    while i < n_ctx:
        it, cid, ce = c_iters[i], c_ids[i], c_ends[i]
        cur = by_iter.get(it)
        if cur is None:
            entry = (ce, it, cid)
            insort(entries, entry)
            by_iter[it] = entry
        elif ce > cur[0]:
            del entries[bisect_left(entries, cur)]
            entry = (ce, it, cid)
            insort(entries, entry)
            by_iter[it] = entry
        i += 1
        next_start = c_starts[i] if i < n_ctx else None

        while j < n_cand and (next_start is None
                              or k_starts[j] < next_start):
            ks = k_starts[j]
            cut = bisect_left(entries, (ks,))
            if cut:
                for entry in entries[:cut]:
                    del by_iter[entry[1]]
                del entries[:cut]
            ke = k_ends[j]
            pos = bisect_left(entries, (ke,))
            if pos < len(entries):
                kid = k_ids[j]
                for entry in entries[pos:]:
                    bucket = result.get(entry[1])
                    if bucket is None:
                        result[entry[1]] = [kid]
                    else:
                        bucket.append(kid)
            j += 1
        if j == n_cand:
            break
    # Pairs are unique (one active entry per iteration, unique candidate
    # ids); only the per-iteration id sort remains.
    for bucket in result.values():
        bucket.sort()
    return result


def _narrow_single_region(context: IterContext, candidates: RegionTable,
                          active_structure: str,
                          trace: TraceSink | None) -> list[tuple[int, int]]:
    """Listing 1: single-region candidates, one active item per iteration."""
    c_iters = context.iters.tolist()
    c_ids = context.ids.tolist()
    c_starts = context.starts.tolist()
    c_ends = context.ends.tolist()
    k_starts = candidates.starts.tolist()
    k_ends = candidates.ends.tolist()
    k_ids = candidates.ids.tolist()

    emit = trace if trace is not None else None
    active = _make_active(active_structure)
    result: list[tuple[int, int]] = []
    n_ctx, n_cand = len(c_iters), len(k_starts)
    i = j = 0

    # Lines 21-24: candidates that start before the first context item can
    # be contained in nothing (context starts only grow from here).
    first_start = c_starts[0]
    while j < n_cand and k_starts[j] < first_start:
        if emit:
            emit(("skip-candidate", k_ids[j]))
        j += 1

    while i < n_ctx:
        # --- add / replace / skip the next context item (lines 8, 11-18, 41)
        it, cid = c_iters[i], c_ids[i]
        cur = active.get(it)
        if cur is not None and c_ends[i] <= cur[0]:
            # Contained in the same iteration's active item: no new results.
            if emit:
                emit(("skip-context", cid))
        elif cur is not None:
            active.replace(it, c_ends[i], cid)
            if emit:
                emit(("replace-active", cur[2], cid))
        else:
            active.add(c_ends[i], it, cid)
            if emit:
                emit(("add-active", cid))
        i += 1
        next_start = c_starts[i] if i < n_ctx else None

        # --- analyse candidates up to the next context item (lines 26-36)
        while j < n_cand and (next_start is None
                              or k_starts[j] < next_start):
            ks, ke, kid = k_starts[j], k_ends[j], k_ids[j]
            for entry in active.trim(ks):                    # lines 29-31
                if emit:
                    emit(("trim", entry[2]))
            hits = active.iters_with_end_at_least(ke)        # lines 32-34
            if hits:
                for entry in hits:
                    result.append((entry[1], kid))
                    if emit:
                        emit(("emit", entry[1], kid))
            elif emit:
                emit(("skip-candidate", kid))
            j += 1
        if j == n_cand:                                      # lines 37-38
            break
    if emit:
        emit(("exit",))
    return result


def _narrow_multi_region(context: IterContext, candidates: RegionTable,
                         multiplicity: dict[int, int],
                         active_structure: str) -> JoinResult:
    """Area-aware pass for multi-region candidate areas.

    Emits region-level matches attributed to the *context area* and keeps
    per ``(iter, ctx_id, cand_id)`` counts; a candidate area matches an
    iteration iff some single context area contains *all* of its regions
    (§3.1 ``contains``: ∀ r2 ∈ a2 ∃ r1 ∈ a1).
    """
    c_iters = context.iters.tolist()
    c_ids = context.ids.tolist()
    c_starts = context.starts.tolist()
    c_ends = context.ends.tolist()
    k_starts = candidates.starts.tolist()
    k_ends = candidates.ends.tolist()
    k_ids = candidates.ids.tolist()

    # Active entries keyed (iter, ctx_id); several areas per iteration may
    # be live at once and area identity matters, so no skip/replacement.
    entries: list[tuple] = []          # (end, iter, ctx_id) ascending by end
    live: dict[tuple[int, int], tuple] = {}
    counts: dict[tuple[int, int, int], int] = {}

    n_ctx, n_cand = len(c_iters), len(k_starts)
    i = j = 0
    while i < n_ctx or j < n_cand:
        take_ctx = i < n_ctx and (j >= n_cand
                                  or c_starts[i] <= k_starts[j])
        if take_ctx:
            entry = (c_ends[i], c_iters[i], c_ids[i])
            insort(entries, entry)
            live[(c_iters[i], c_ids[i])] = entry
            i += 1
            continue
        ks, ke, kid = k_starts[j], k_ends[j], k_ids[j]
        cut = bisect_left(entries, (ks,))
        for entry in entries[:cut]:
            key = (entry[1], entry[2])
            if live.get(key) is entry:
                del live[key]
        del entries[:cut]
        idx = bisect_left(entries, (ke,))
        for end, it, ctx_id in entries[idx:]:
            key = (it, ctx_id, kid)
            counts[key] = counts.get(key, 0) + 1
        j += 1

    pairs = [(it, kid) for (it, _ctx, kid), n in counts.items()
             if n == multiplicity[kid]]
    return _sorted_unique_per_iter(pairs)


# ----------------------------------------------------------------------
# select-wide (overlap semi-join)
# ----------------------------------------------------------------------

def ll_select_wide(context: IterContext, candidates: RegionTable, *,
                   active_structure: str = "list",
                   trace: TraceSink | None = None) -> JoinResult:
    """Loop-lifted overlap semi-join.

    Overlap is ∃∃-quantified over regions (§3.1), so region-level matches
    deduplicated per ``(iter, candidate)`` are exact for any multiplicity.
    The merge is two-sided: a candidate matches context items active at
    its start, *and* context items arriving during its extent; context
    items are processed first on start ties so each pair is found once
    (then set-deduplicated).
    """
    if len(context) == 0 or len(candidates) == 0:
        return {}
    c_iters = context.iters.tolist()
    c_ids = context.ids.tolist()
    c_starts = context.starts.tolist()
    c_ends = context.ends.tolist()
    k_starts = candidates.starts.tolist()
    k_ends = candidates.ends.tolist()
    k_ids = candidates.ids.tolist()

    active = _make_active(active_structure)
    # Active candidates: (end, cand_id) ascending by end.
    cand_active: list[tuple] = []
    seen: set[tuple[int, int]] = set()

    n_ctx, n_cand = len(c_iters), len(k_starts)
    i = j = 0
    while i < n_ctx or j < n_cand:
        take_ctx = i < n_ctx and (j >= n_cand
                                  or c_starts[i] <= k_starts[j])
        if take_ctx:
            it, cid, cs, ce = c_iters[i], c_ids[i], c_starts[i], c_ends[i]
            cur = active.get(it)
            if cur is not None and ce <= cur[0]:
                i += 1                      # contained in same-iter item
                continue
            if cur is not None:
                active.replace(it, ce, cid)
            else:
                active.add(ce, it, cid)
            # Candidates still alive at cs all overlap this context item.
            cut = bisect_left(cand_active, (cs,))
            del cand_active[:cut]
            for _end, kid in cand_active:
                seen.add((it, kid))
            i += 1
        else:
            ks, ke, kid = k_starts[j], k_ends[j], k_ids[j]
            active.trim(ks)
            # Every live context item has start <= ks <= end: overlap.
            for entry in active.all_entries():
                seen.add((entry[1], kid))
            insort(cand_active, (ke, kid))
            j += 1
    return _sorted_unique_per_iter(seen)


# ----------------------------------------------------------------------
# rejects (anti-joins)
# ----------------------------------------------------------------------

def _complement(select_result: JoinResult, iterations: list[int],
                universe: np.ndarray) -> JoinResult:
    """Per-iteration complement of a semi-join result over *universe*.

    Delegates to the shared columnar helper
    (:func:`repro.relational.columnar.complement`) and decodes back to
    the reference path's dict representation.
    """
    return complement(select_result, iterations, universe).to_dict()


def ll_reject_narrow(context: IterContext, candidates: RegionTable, *,
                     active_structure: str = "list",
                     trace: TraceSink | None = None) -> JoinResult:
    """Containment anti-join: candidates contained in *no* context area.

    Computed as the per-iteration complement of :func:`ll_select_narrow`
    over the candidate universe.  Iterations with a non-empty context
    sequence but no containment matches return the full universe;
    iterations absent from the context return nothing (a step needs
    context nodes to produce output — see DESIGN.md §5).
    """
    if len(context) == 0:
        return {}
    universe = candidates.unique_ids()
    selected = ll_select_narrow(context, candidates,
                                active_structure=active_structure,
                                trace=trace)
    return _complement(selected, context.iterations(), universe)


def ll_reject_wide(context: IterContext, candidates: RegionTable, *,
                   active_structure: str = "list",
                   trace: TraceSink | None = None) -> JoinResult:
    """Overlap anti-join: candidates overlapping *no* context area."""
    if len(context) == 0:
        return {}
    universe = candidates.unique_ids()
    selected = ll_select_wide(context, candidates,
                              active_structure=active_structure,
                              trace=trace)
    return _complement(selected, context.iterations(), universe)


_DISPATCH = {
    StandoffOp.SELECT_NARROW: ll_select_narrow,
    StandoffOp.SELECT_WIDE: ll_select_wide,
    StandoffOp.REJECT_NARROW: ll_reject_narrow,
    StandoffOp.REJECT_WIDE: ll_reject_wide,
}


def ll_join(op: StandoffOp, context: IterContext,
            candidates: RegionTable, *,
            active_structure: str = "list",
            trace: TraceSink | None = None) -> JoinResult:
    """Dispatch a loop-lifted StandOff join by operator."""
    return _DISPATCH[op](context, candidates,
                         active_structure=active_structure, trace=trace)
