"""Columnar join results: the CSR-style ``offsets + values`` backbone.

The loop-lifted execution model of the source system is column-at-a-time
end to end: the result of a StandOff join over all iterations of a
for-loop is one ``iter|pos|item`` table, not a dictionary of Python
lists.  :class:`ColumnarResult` is that table in CSR form —

* ``iters``   — the distinct iteration numbers, strictly ascending;
* ``offsets`` — ``len(iters) + 1`` positions into ``values``; iteration
  ``iters[i]`` owns the slice ``values[offsets[i]:offsets[i + 1]]``
  (possibly empty: anti-joins keep iterations with no survivors);
* ``values``  — candidate node ids, unique and ascending (= document
  order) within each iteration's slice.

It is the *native currency* of both join families: the vectorized
StandOff kernels (:mod:`repro.core.kernels_vec`), the StandOff step
(:func:`repro.core.steps.standoff_step`, one call per fragment) and the
vectorized Staircase kernels all return it.  It also implements the read-only
``Mapping`` protocol with **lazy per-iteration decoding**, so code
written against the historical ``dict[int, list[int]]`` ``JoinResult``
(the ``ll``/``basic``/``udf`` reference paths, tests)
consumes columnar results unchanged — decoding happens per accessed
iteration and is cached, never eagerly for the whole result.

:func:`complement` is the shared anti-join helper: both the vectorized
kernels and the row-at-a-time reference merge compute ``reject-*`` as
the per-iteration complement of the matching ``select-*`` through it.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import chain, compress
from typing import Sequence

import numpy as np

#: Upper bound on the boolean membership matrix materialized by the
#: vectorized complement; above it the per-iteration fallback runs (the
#: matrix is proportional to the *output* size, so this only triggers
#: for anti-joins whose result would be enormous anyway).
COMPLEMENT_BUDGET = 32_000_000

#: Composite-key headroom: the ``segment * span + value`` offset tricks
#: stay inside int64 (callers fall back to per-segment loops past it).
INT64_BUDGET = 2 ** 62


def run_starts(sorted_vals: np.ndarray) -> np.ndarray:
    """Start offsets of the runs of equal values in a sorted array."""
    return np.concatenate(
        ([0], np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1]) + 1))


def segment_ids(n: int, seg_off: np.ndarray) -> np.ndarray:
    """Segment ordinal per position, given segment start offsets."""
    ids = np.zeros(n, np.int64)
    ids[seg_off[1:]] = 1
    np.cumsum(ids, out=ids)
    return ids


def segmented_cummax(values: np.ndarray,
                     seg_off: np.ndarray) -> np.ndarray:
    """Per-segment inclusive prefix maximum (segments start at seg_off):
    what Listing 1's active-items structure tracks for the StandOff
    joins, and the horizon the Staircase Join prunes nested windows by.
    Integer columns take one ``maximum.accumulate`` over composite
    ``segment * span + value`` keys; float columns (``xs:double``
    positions) and spans past the int64 headroom loop per segment.
    """
    if len(seg_off) <= 1:
        return np.maximum.accumulate(values)
    if len(seg_off) == len(values):          # all segments of length one
        return values
    if values.dtype.kind in "iu":
        vmin = int(values.min())
        span = int(values.max()) - vmin + 1
        if len(seg_off) * span < INT64_BUDGET:
            base = segment_ids(len(values), seg_off) * span
            comp = values.astype(np.int64, copy=True)
            comp -= vmin
            comp += base
            np.maximum.accumulate(comp, out=comp)
            comp -= base
            comp += vmin
            return comp
    out = np.empty_like(values)
    bounds = np.append(seg_off, len(values)).tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        np.maximum.accumulate(values[a:b], out=out[a:b])
    return out


def expand_ranges(keys: np.ndarray, j0: np.ndarray, j1: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand per-segment index ranges ``[j0, j1)`` into flat pair
    columns: segment *i*'s key once per index of its range, the indices
    themselves, and the pair bounds (pairs ``offs[i]:offs[i + 1]``
    belong to segment *i*).  Materializes ``sum(j1 - j0)`` rows — a
    caller whose ranges can blow up checks its budget first.
    """
    counts = j1 - j0
    offs = np.concatenate(([0], np.cumsum(counts)))
    index = np.arange(int(offs[-1]), dtype=np.int64) \
        - np.repeat(offs[:-1] - j0, counts)
    return np.repeat(keys, counts), index, offs


def segment_lengths(offsets: np.ndarray) -> np.ndarray:
    """Per-row segment sizes of a CSR layout: for every value row, the
    length of the segment it belongs to.

    This is ``last()`` over a columnar axis result — one batched array
    op instead of a per-context-node count.
    """
    counts = np.diff(np.asarray(offsets, dtype=np.int64))
    return np.repeat(counts, counts)


def segment_positions(offsets: np.ndarray, *,
                      reverse: bool = False) -> np.ndarray:
    """Per-row 1-based positions within each CSR segment.

    With ``reverse=False`` rows count up in storage order (``1..len``
    per segment — XPath ``position()`` on a forward axis, whose result
    is stored in document order).  ``reverse=True`` counts down
    (``len..1``): reverse axes enumerate in reverse document order, so
    the first stored row of a segment is that context node's *last*
    axis position — a segmented cumcount flipped per segment.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = np.diff(offsets)
    total = int(offsets[-1])
    ordinal = (np.arange(total, dtype=np.int64)
               - np.repeat(offsets[:-1], counts))
    if reverse:
        return np.repeat(counts, counts) - ordinal
    return ordinal + 1


def _as_int64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


class ColumnarResult(Mapping):
    """A loop-lifted join result as ``iters`` + CSR ``offsets|values``.

    Iteration -> unique candidate node ids in ascending (= document)
    order, stored columnar.  See the module docstring for invariants.
    As a read-only ``Mapping`` it decodes lazily: one iteration's list
    on first access, cached.
    """

    __slots__ = ("iters", "offsets", "values", "nodes", "_decoded")

    def __init__(self, iters: np.ndarray, offsets: np.ndarray,
                 values: np.ndarray, nodes: list | None = None):
        self.iters = iters
        self.offsets = offsets
        self.values = values
        #: The decoded node of every value row, aligned with ``values``,
        #: when a per-item stage already decoded them (else ``None``).
        self.nodes = nodes
        self._decoded: dict[int, list[int]] = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "ColumnarResult":
        return cls(np.empty(0, np.int64), np.zeros(1, np.int64),
                   np.empty(0, np.int64))

    @classmethod
    def from_pairs(cls, iter_vals: np.ndarray, values: np.ndarray, *,
                   presorted: bool = False, unique: bool = False
                   ) -> "ColumnarResult":
        """Group matched ``(iter, candidate id)`` pairs into canonical
        columnar form: unique ids per iteration, ascending.

        ``presorted`` promises ``(iter, value)``-lexicographic input
        order; ``unique`` promises there are no duplicate pairs.  Both
        skip the corresponding normalization pass.
        """
        iter_vals = _as_int64(iter_vals)
        values = _as_int64(values)
        if len(iter_vals) == 0:
            return cls.empty()
        if not presorted:
            order = np.lexsort((values, iter_vals))
            iter_vals = iter_vals[order]
            values = values[order]
        if not unique:
            keep = np.empty(len(iter_vals), bool)
            keep[0] = True
            np.logical_or(iter_vals[1:] != iter_vals[:-1],
                          values[1:] != values[:-1], out=keep[1:])
            iter_vals = iter_vals[keep]
            values = values[keep]
        first = run_starts(iter_vals)
        return cls(iter_vals[first], np.append(first, len(iter_vals)),
                   values)

    @classmethod
    def from_dict(cls, mapping: Mapping) -> "ColumnarResult":
        """Columnarize a ``dict[int, list[int]]``-shaped result.

        Iterations are sorted and each iteration's ids canonicalized
        (sorted, deduplicated); iterations with empty sequences are
        preserved as empty slices.
        """
        if not mapping:
            return cls.empty()
        its = sorted(mapping)
        # The reference kernels hand over short, mostly sorted lists:
        # canonicalizing them in Python and building the value column
        # in one pass beats a NumPy call per iteration.
        chunks = [sorted(set(mapping[it])) for it in its]
        offsets = np.zeros(len(its) + 1, np.int64)
        np.cumsum([len(c) for c in chunks], out=offsets[1:])
        values = np.fromiter(chain.from_iterable(chunks), np.int64,
                             count=int(offsets[-1]))
        return cls(_as_int64(its), offsets, values)

    # -- columnar accessors ------------------------------------------------

    @property
    def n_values(self) -> int:
        """Total number of ``(iter, id)`` result rows."""
        return len(self.values)

    def _find(self, iteration: int) -> int:
        i = int(np.searchsorted(self.iters, iteration))
        if i == len(self.iters) or self.iters[i] != iteration:
            raise KeyError(iteration)
        return i

    def slice_of(self, iteration: int) -> tuple[int, int]:
        """The ``[a, b)`` bounds of an iteration's slice of ``values``."""
        i = self._find(iteration)
        return int(self.offsets[i]), int(self.offsets[i + 1])

    def keep_rows(self, keep: np.ndarray, nodes: list | None = None
                  ) -> "ColumnarResult":
        """The value rows where the boolean *keep* holds, under the same
        iterations (one may be left with an empty slice).  *nodes*, or
        else :attr:`nodes`, are the rows' decoded nodes (aligned with
        ``values``); the survivors' are kept."""
        kept = np.concatenate((np.zeros(1, dtype=np.int64),
                               np.cumsum(keep, dtype=np.int64)))
        if nodes is None:
            nodes = self.nodes
        if nodes is not None:
            nodes = list(compress(nodes, keep.tolist()))
        return ColumnarResult(self.iters, kept[self.offsets],
                              self.values[keep], nodes)

    # -- lazy dict view (the compatibility adapter) ------------------------

    def __getitem__(self, iteration: int) -> list[int]:
        cached = self._decoded.get(iteration)
        if cached is None:
            a, b = self.slice_of(iteration)
            cached = self.values[a:b].tolist()
            self._decoded[iteration] = cached
        return cached

    def __iter__(self):
        return iter(self.iters.tolist())

    def __len__(self) -> int:
        return len(self.iters)

    def __contains__(self, iteration) -> bool:
        try:
            self._find(iteration)
        except (KeyError, TypeError):
            return False
        return True

    def to_dict(self) -> dict[int, list[int]]:
        """Fully decode to the classical dict representation."""
        # One batched tolist() instead of a per-iteration decode — this
        # is the reference paths' bulk decolumnarization (ll rejects).
        bounds = self.offsets.tolist()
        vals = self.values.tolist()
        return {it: vals[a:b] for it, a, b in zip(self.iters.tolist(),
                                                  bounds[:-1], bounds[1:])}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnarResult):
            return (np.array_equal(self.iters, other.iters)
                    and np.array_equal(self.offsets, other.offsets)
                    and np.array_equal(self.values, other.values))
        if isinstance(other, Mapping):
            return self.to_dict() == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"ColumnarResult(iters={len(self.iters)}, "
                f"values={int(self.offsets[-1])})")


# ----------------------------------------------------------------------
# the shared anti-join helper
# ----------------------------------------------------------------------

def _selected_pairs(selected) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a select-join result to ``(iter, id)`` pair columns."""
    if isinstance(selected, ColumnarResult):
        return (np.repeat(selected.iters, np.diff(selected.offsets)),
                selected.values)
    rep: list[int] = []
    vals: list[int] = []
    for it, ids in selected.items():
        rep.extend([it] * len(ids))
        vals.extend(ids)
    return _as_int64(rep), _as_int64(vals)


def complement(selected, iterations: Sequence[int],
               universe: np.ndarray, *,
               budget: int = COMPLEMENT_BUDGET) -> ColumnarResult:
    """Per-iteration complement of a semi-join result over *universe*.

    The single anti-join implementation shared by the vectorized kernels
    and the row-at-a-time reference merge: for every iteration in
    *iterations* (ascending, usually ``context.iterations()``), the
    result is ``universe`` minus that iteration's selected ids.

    :param selected: the semi-join result — a :class:`ColumnarResult`
        or any ``iter -> ids`` mapping; ids must be drawn from
        *universe*.
    :param universe: sorted unique candidate node ids.
    :param budget: cell cap for the vectorized membership matrix
        (``iterations x universe``); larger shapes use the
        per-iteration ``setdiff1d`` fallback.
    """
    its = _as_int64(list(iterations))
    universe = _as_int64(universe)
    n_it, m = len(its), len(universe)
    if n_it == 0:
        return ColumnarResult.empty()
    if m == 0:
        return ColumnarResult(its, np.zeros(n_it + 1, np.int64),
                              np.empty(0, np.int64))
    if n_it * m <= budget:
        keep = np.ones((n_it, m), bool)
        sel_it, sel_val = _selected_pairs(selected)
        if len(sel_val):
            row = np.searchsorted(its, sel_it)
            col = np.searchsorted(universe, sel_val)
            ok = (row < n_it) & (col < m)
            ok &= its[np.minimum(row, n_it - 1)] == sel_it
            ok &= universe[np.minimum(col, m - 1)] == sel_val
            keep[row[ok], col[ok]] = False
        offsets = np.zeros(n_it + 1, np.int64)
        np.cumsum(keep.sum(axis=1), out=offsets[1:])
        values = np.broadcast_to(universe, (n_it, m))[keep]
        return ColumnarResult(its, offsets, values)
    # Fallback: the matrix would be enormous — walk iterations.
    chunks: list[np.ndarray] = []
    offsets = np.zeros(n_it + 1, np.int64)
    for i, it in enumerate(its.tolist()):
        matched = selected.get(it)
        if matched is not None and len(matched):
            chunk = np.setdiff1d(universe, _as_int64(matched),
                                 assume_unique=True)
        else:
            chunk = universe
        chunks.append(chunk)
        offsets[i + 1] = offsets[i] + len(chunk)
    values = (np.concatenate(chunks) if offsets[-1]
              else np.empty(0, np.int64))
    return ColumnarResult(its, offsets, values)
