"""Loop-lifted sequences: the ``iter|pos|item`` representation (§4.1).

Pathfinder represents the value of an expression *inside a for-loop* as a
single table with columns ``iter|pos|item``: for every iteration ``iter``
of the loop, the rows with that iteration number are the expression's
item sequence (ordered by ``pos``).  :class:`IterSeq` is that table.  It
has two physical forms:

* a node sequence from one fragment is a :class:`NodeColumns` — the
  table itself, ``item`` a pre rank of the fragment's shredded columns
  (a stored document's document node is its pre 0, so ``fn:doc``
  yields one too):
  ascending ``iters``, each naming its segment of a shared join result
  (a kernel's CSR :class:`~repro.relational.columnar.ColumnarResult`,
  ``pre`` values in document order), so ``pos`` is the row's rank in
  its segment.  Join kernels produce it, the next join takes its
  ``(iter, pre)`` rows as they are, and a ``for`` loop expands from its
  offsets; Python nodes are decoded only when a consumer asks for
  items;
* everything else (atomics, constructed nodes, nodes from several
  fragments) groups Python items per iteration in a dict, ``pos``
  implicit in list order.

The for-loop machinery follows Pathfinder's *loop lifting* [Grust et al.,
VLDB 2004]:

* :func:`expand_loop` maps every ``(iter, item)`` row of the binding
  sequence to a fresh inner iteration number (the inner ``loop``
  relation), remembering the outer iteration each inner one came from;
  :func:`loop_positions` numbers the rows for ``at $p``;
* :meth:`IterSeq.relift` re-expresses an outer-scope variable in the
  inner loop (each inner iteration sees its outer iteration's items);
* :func:`unlift` folds the body's inner-loop result back onto the outer
  loop, concatenating per outer iteration in inner-iteration order.

The column form stays columns through :func:`expand_loop`,
:meth:`IterSeq.relift` and :meth:`IterSeq.restrict`, and the latter two
share the join result: they cost one segment index per iteration, like
the dict form's shared item lists, never a copy of the rows.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.relational.columnar import ColumnarResult, expand_ranges

#: A loop relation: the iteration numbers of a live scope, ascending.
Loop = list


def _in_loop(iters: np.ndarray, loop: Loop) -> np.ndarray | None:
    """Which of the ascending *iters* lie in *loop*; ``None`` when all
    do.  A dense loop (the usual one: ``expand_loop`` numbers inner
    iterations ``0..n-1``) is a range test, not a set lookup."""
    if not len(iters):
        return None
    if not loop:
        return np.zeros(len(iters), dtype=bool)
    lo, hi = loop[0], loop[-1]
    if hi - lo + 1 == len(loop):
        if iters[0] >= lo and iters[-1] <= hi:
            return None
        return (iters >= lo) & (iters <= hi)
    return np.isin(iters, np.asarray(loop, dtype=np.int64))


class NodeColumns(Mapping):
    """A loop-lifted node sequence over one fragment, kept as columns.

    *result* is a canonical :class:`ColumnarResult` whose values are pre
    ranks of *shredded* (unique and ascending per iteration, which is
    document order).  A join makes one; so does ``fn:doc`` (and an
    absolute ``/``), whose result is the fragment's root row
    (:meth:`root`).  A view of it is ``iters`` (ascending) and, per
    iteration, the index of its segment of *result* — ``None`` for the
    whole result in order.  Views share *result*: :meth:`restrict` and
    :meth:`relift` gather segment indices, never rows, so they cost the
    view's iteration count however long its segments are.  The column
    operations never decode:

    * :meth:`rows` — the ``(iter, pre)`` columns of the live iterations,
      in the canonical order a join kernel takes as its context (the
      only place rows are materialized);
    * :meth:`lengths` — each loop iteration's item count.

    As the read-only ``iter -> list[Node]`` mapping every other consumer
    reads, a view decodes once, on first item access, in a single
    batched pass over its distinct segments: one ``tolist()`` and one
    ``node_by_pre`` sweep.  Inner iterations that share a segment (a
    relift) share its node list.
    """

    __slots__ = ("shredded", "result", "iters", "_segments", "_decoded")

    def __init__(self, shredded, result: ColumnarResult,
                 iters: np.ndarray | None = None,
                 segments: np.ndarray | None = None):
        self.shredded = shredded
        self.result = result
        self.iters = result.iters if iters is None else iters
        self._segments = segments
        self._decoded: dict[int, list] | None = None

    @classmethod
    def root(cls, shredded, iters) -> "NodeColumns":
        """The fragment's root — row 0 of *shredded*, a stored
        document's document node — in every iteration of *iters*
        (ascending): one one-row segment they all share, nothing
        decoded."""
        iters = np.asarray(iters, dtype=np.int64)
        zero = np.zeros(1, dtype=np.int64)
        result = ColumnarResult(zero, np.arange(2, dtype=np.int64), zero)
        return cls(shredded, result, iters,
                   np.zeros(len(iters), dtype=np.int64))

    @property
    def segments(self) -> np.ndarray:
        """Per iteration, the index of its segment of the result."""
        if self._segments is None:
            return np.arange(len(self.iters), dtype=np.int64)
        return self._segments

    def _view(self, iters: np.ndarray, segments: np.ndarray
              ) -> "NodeColumns":
        return NodeColumns(self.shredded, self.result, iters, segments)

    # -- columns -------------------------------------------------------------

    def restrict(self, loop: Loop) -> "NodeColumns":
        """The iterations of *loop* only, still undecoded."""
        live = _in_loop(self.iters, loop)
        if live is None:
            return self
        return self._view(self.iters[live], self.segments[live])

    def rows(self, loop: Loop) -> tuple[np.ndarray, np.ndarray]:
        """The ``(iter, pre)`` columns of the iterations in *loop*,
        sorted by ``(iter, pre)`` and duplicate-free."""
        view = self.restrict(loop)
        offsets, values = self.result.offsets, self.result.values
        if view._segments is None:
            return np.repeat(view.iters, offsets[1:] - offsets[:-1]), values
        its, index, _bounds = expand_ranges(
            view.iters, offsets[view._segments], offsets[view._segments + 1])
        return its, values[index]

    def lengths(self, loop: Loop) -> np.ndarray:
        """The item count of every iteration of *loop*, aligned with it."""
        iters = self.iters
        wanted = np.asarray(loop, dtype=np.int64)
        out = np.zeros(len(wanted), dtype=np.int64)
        if len(iters):
            at = np.minimum(np.searchsorted(iters, wanted), len(iters) - 1)
            found = iters[at] == wanted
            segments = self.segments[at[found]]
            offsets = self.result.offsets
            out[found] = offsets[segments + 1] - offsets[segments]
        return out

    def relift(self, outer_of_inner: list[int]) -> "NodeColumns":
        """Inner iteration *q* sees the items of iteration
        ``outer_of_inner[q]`` (see :meth:`IterSeq.relift`): its segment,
        not a copy of its rows."""
        iters = self.iters
        outer = np.asarray(outer_of_inner, dtype=np.int64)
        if not len(iters) or not len(outer):
            return self._view(iters[:0], iters[:0])
        at = np.minimum(np.searchsorted(iters, outer), len(iters) - 1)
        found = iters[at] == outer
        return self._view(np.flatnonzero(found), self.segments[at[found]])

    # -- the decoded mapping ----------------------------------------------------

    def _decode(self) -> dict[int, list]:
        offsets, values = self.result.offsets, self.result.values
        if self._segments is None:
            pres, bounds, which = values, offsets, None
        else:
            distinct, which = np.unique(self._segments, return_inverse=True)
            _keys, index, bounds = expand_ranges(
                distinct, offsets[distinct], offsets[distinct + 1])
            pres = values[index]
        known = self.result.nodes
        if known is None:
            rows = list(map(self.shredded.node_by_pre, pres.tolist()))
        elif which is None:
            rows = known
        else:
            rows = list(map(known.__getitem__, index.tolist()))
        bounds = bounds.tolist()
        nodes = [rows[a:b] for a, b in zip(bounds, bounds[1:])]
        if which is not None:
            nodes = list(map(nodes.__getitem__, which.tolist()))
        self._decoded = dict(zip(self.iters.tolist(), nodes))
        return self._decoded

    def get(self, iteration, default=None):
        decoded = self._decoded
        if decoded is None:
            decoded = self._decode()
        return decoded.get(iteration, default)

    def __getitem__(self, iteration: int) -> list:
        nodes = self.get(iteration)
        if nodes is None:
            raise KeyError(iteration)
        return nodes

    def __contains__(self, iteration) -> bool:
        if self._decoded is not None:
            return iteration in self._decoded
        at = int(np.searchsorted(self.iters, iteration))
        return at < len(self.iters) and self.iters[at] == iteration

    def __iter__(self) -> Iterator[int]:
        return iter(self.iters.tolist())

    def __len__(self) -> int:
        return len(self.iters)

    def __repr__(self) -> str:
        return (f"NodeColumns(iters={len(self.iters)}, "
                f"decoded={self._decoded is not None})")


class IterSeq:
    """A loop-lifted item sequence (``iter|pos|item``).

    ``data`` maps an iteration number to its item list — a plain dict,
    or a :class:`NodeColumns` (a one-fragment node sequence kept as
    columns).  Iterations with an empty sequence may be absent —
    consumers must treat a missing key as the empty sequence.
    """

    __slots__ = ("data",)

    def __init__(self, data: Mapping | None = None):
        self.data = data if data is not None else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def lifted(cls, items: list, loop: Loop) -> "IterSeq":
        """The constant sequence *items* in every iteration of *loop*."""
        if not items:
            return cls({})
        return cls({it: list(items) for it in loop})

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, object]]) -> "IterSeq":
        data: dict[int, list] = {}
        for it, item in pairs:
            data.setdefault(it, []).append(item)
        return cls(data)

    @classmethod
    def single(cls, items: list, iteration: int = 0) -> "IterSeq":
        """A sequence living in a single iteration (top-level scope)."""
        if not items:
            return cls({})
        return cls({iteration: list(items)})

    # -- accessors ----------------------------------------------------------

    def items_for(self, iteration: int) -> list:
        return self.data.get(iteration, [])

    def iterations(self) -> list[int]:
        return sorted(self.data)

    def total_items(self) -> int:
        return sum(len(v) for v in self.data.values())

    # -- bulk operations ------------------------------------------------------

    def map_items(self, fn: Callable) -> "IterSeq":
        """Apply *fn* to every item, preserving iter/pos structure."""
        return IterSeq({it: [fn(x) for x in items]
                        for it, items in self.data.items()})

    def restrict(self, live: Loop) -> "IterSeq":
        """Keep only the iterations of the loop *live*.

        Column-backed sequences stay columns (iterations outside *live*
        are never decoded); dict-backed ones are filtered eagerly.
        """
        if isinstance(self.data, NodeColumns):
            return IterSeq(self.data.restrict(live))
        live_set = set(live)
        return IterSeq({it: items for it, items in self.data.items()
                        if it in live_set})

    def concat(self, other: "IterSeq") -> "IterSeq":
        """Per-iteration sequence concatenation (XQuery ``,``)."""
        out: dict[int, list] = {}
        for it, items in self.data.items():
            out[it] = list(items)
        for it, items in other.data.items():
            out.setdefault(it, []).extend(items)
        return IterSeq(out)

    def __repr__(self) -> str:
        return f"IterSeq(iters={len(self.data)}, items={self.total_items()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IterSeq):
            return NotImplemented
        mine = {it: v for it, v in self.data.items() if v}
        theirs = {it: v for it, v in other.data.items() if v}
        return mine == theirs

    def __hash__(self):
        raise TypeError("IterSeq is unhashable")

    # -- loop lifting ------------------------------------------------------------

    def relift(self, outer_of_inner: list[int]) -> "IterSeq":
        """Re-express this outer-loop sequence in an inner loop.

        ``outer_of_inner[q]`` is the outer iteration that inner iteration
        *q* descends from; each inner iteration sees its outer
        iteration's item sequence.
        """
        if isinstance(self.data, NodeColumns):
            return IterSeq(self.data.relift(outer_of_inner))
        out: dict[int, list] = {}
        for q, outer in enumerate(outer_of_inner):
            items = self.data.get(outer)
            if items:
                out[q] = items
        return IterSeq(out)


def expand_loop(binding: IterSeq, loop: Loop
                ) -> tuple[Loop, list[int], IterSeq]:
    """Create the inner loop for ``for $v in <binding>``.

    Every ``(iter, item)`` row of the binding sequence becomes one inner
    iteration, numbered densely in (outer iter, pos) order.

    :returns: ``(inner_loop, outer_of_inner, var_seq)`` where
        ``var_seq`` binds ``$v`` (one item per inner iteration);
        :func:`loop_positions` of ``outer_of_inner`` binds ``at $p``.

    A column-backed binding expands from its CSR offsets: the inner
    iterations are its rows, ``outer_of_inner`` is its ``iter`` column
    and ``$v`` binds the ``pre`` column as a one-row-per-iteration
    :class:`NodeColumns` — no node is decoded.
    """
    if isinstance(binding.data, NodeColumns):
        its, pres = binding.data.rows(loop)
        inner = np.arange(len(pres) + 1, dtype=np.int64)
        var_seq = IterSeq(NodeColumns(
            binding.data.shredded, ColumnarResult(inner[:-1], inner, pres)))
        return list(range(len(pres))), its.tolist(), var_seq
    inner_loop: Loop = []
    outer_of_inner: list[int] = []
    var_data: dict[int, list] = {}
    q = 0
    for it in loop:
        for item in binding.items_for(it):
            inner_loop.append(q)
            outer_of_inner.append(it)
            var_data[q] = [item]
            q += 1
    return inner_loop, outer_of_inner, IterSeq(var_data)


def loop_positions(outer_of_inner: list[int]) -> IterSeq:
    """The ``at $p`` sequence of the inner loop :func:`expand_loop` made:
    inner iteration *q* holds the 1-based position of its item within
    its outer iteration's binding sequence (the inner iterations of one
    outer iteration are consecutive)."""
    data: dict[int, list] = {}
    previous, pos = None, 0
    for q, outer in enumerate(outer_of_inner):
        pos = pos + 1 if outer == previous else 1
        previous = outer
        data[q] = [pos]
    return IterSeq(data)


def unlift(result: IterSeq, outer_of_inner: list[int],
           order: list[int] | None = None) -> IterSeq:
    """Fold an inner-loop result back onto the outer loop.

    Inner iterations are visited in order (or in the explicit *order* —
    the ``order by`` case); their sequences concatenate under the outer
    iteration they descend from — exactly the XQuery semantics of a
    for-loop's result sequence.
    """
    out: dict[int, list] = {}
    inner_iterations = (range(len(outer_of_inner)) if order is None
                        else order)
    for q in inner_iterations:
        items = result.data.get(q)
        if items:
            out.setdefault(outer_of_inner[q], []).extend(items)
    return IterSeq(out)
