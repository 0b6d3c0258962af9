"""Loop-lifted sequences: the ``iter|pos|item`` representation (§4.1).

Pathfinder represents the value of an expression *inside a for-loop* as a
single table with columns ``iter|pos|item``: for every iteration ``iter``
of the loop, the rows with that iteration number are the expression's
item sequence (ordered by ``pos``).  :class:`IterSeq` is that table; the
physical storage groups items per iteration (``pos`` is implicit in list
order).

The for-loop machinery follows Pathfinder's *loop lifting* [Grust et al.,
VLDB 2004]:

* :func:`expand_loop` maps every ``(iter, item)`` row of the binding
  sequence to a fresh inner iteration number (the inner ``loop``
  relation), remembering the outer iteration each inner one came from;
* :meth:`IterSeq.relift` re-expresses an outer-scope variable in the
  inner loop (each inner iteration sees its outer iteration's items);
* :func:`unlift` folds the body's inner-loop result back onto the outer
  loop, concatenating per outer iteration in inner-iteration order.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, Iterable, Iterator

#: A loop relation: the ordered iteration numbers of a live scope.
Loop = list


class LazyIterData(Mapping):
    """A lazily-decoded ``iter -> item list`` mapping over a columnar
    backbone.

    Wraps the sorted iteration keys of a columnar join result and a
    ``decode(iteration) -> list`` callable; per-iteration item lists are
    materialized only when accessed (and cached, shared across
    :meth:`restrict` copies).  This is the node-id fast path that lets
    the bulk evaluator consume StandOff join output without eagerly
    exploding every iteration into Python lists — iterations dropped by
    a ``where`` clause or an ``if`` branch are never decoded.
    """

    __slots__ = ("_keys", "_keyset", "_decode", "_cache")

    def __init__(self, keys: list[int], decode: Callable[[int], list],
                 _cache: dict | None = None):
        self._keys = keys
        self._keyset = frozenset(keys)
        self._decode = decode
        self._cache: dict[int, list] = {} if _cache is None else _cache

    def __getitem__(self, iteration: int) -> list:
        # Membership first: the decode cache is shared with restrict()
        # views, so it may hold iterations this view has filtered out.
        if iteration not in self._keyset:
            raise KeyError(iteration)
        cached = self._cache.get(iteration)
        if cached is None:
            cached = self._decode(iteration)
            self._cache[iteration] = cached
        return cached

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, iteration) -> bool:
        return iteration in self._keyset

    def restrict(self, live: set) -> "LazyIterData":
        """The sub-mapping of iterations in *live*, still lazy.

        The decode cache is shared with the parent, so an iteration
        decoded through either view is decoded once.
        """
        return LazyIterData([it for it in self._keys if it in live],
                            self._decode, _cache=self._cache)

    def __repr__(self) -> str:
        return (f"LazyIterData(iters={len(self._keys)}, "
                f"decoded={len(self._cache)})")


class IterSeq:
    """A loop-lifted item sequence (``iter|pos|item``).

    ``data`` maps an iteration number to its item list — a plain dict,
    or any read-only mapping such as :class:`LazyIterData` (the
    columnar-backed lazy view over join results).  Iterations with
    an empty sequence may be absent — consumers must treat a missing key
    as the empty sequence.
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

    def per_iter(self) -> Iterator[tuple[int, list]]:
        for it in sorted(self.data):
            yield it, self.data[it]

    def total_items(self) -> int:
        return sum(len(v) for v in self.data.values())

    # -- bulk operations ------------------------------------------------------

    def map_items(self, fn: Callable) -> "IterSeq":
        """Apply *fn* to every item, preserving iter/pos structure."""
        return IterSeq({it: [fn(x) for x in items]
                        for it, items in self.data.items()})

    def restrict(self, live: Iterable[int]) -> "IterSeq":
        """Keep only the iterations in *live*.

        Lazily-backed sequences stay lazy (iterations outside *live*
        are never decoded); dict-backed ones are filtered eagerly.
        """
        live_set = set(live)
        if isinstance(self.data, LazyIterData):
            return IterSeq(self.data.restrict(live_set))
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
        out: dict[int, list] = {}
        for q, outer in enumerate(outer_of_inner):
            items = self.data.get(outer)
            if items:
                out[q] = items
        return IterSeq(out)


def expand_loop(binding: IterSeq, loop: Loop
                ) -> tuple[Loop, list[int], IterSeq, IterSeq]:
    """Create the inner loop for ``for $v [at $p] in <binding>``.

    Every ``(iter, item)`` row of the binding sequence becomes one inner
    iteration, numbered densely in (outer iter, pos) order.

    :returns: ``(inner_loop, outer_of_inner, var_seq, pos_seq)`` where
        ``var_seq`` binds ``$v`` (one item per inner iteration) and
        ``pos_seq`` binds the positional variable (1-based position of
        the item within its outer iteration's binding sequence).
    """
    inner_loop: Loop = []
    outer_of_inner: list[int] = []
    var_data: dict[int, list] = {}
    pos_data: dict[int, list] = {}
    q = 0
    for it in loop:
        for pos, item in enumerate(binding.items_for(it), start=1):
            inner_loop.append(q)
            outer_of_inner.append(it)
            var_data[q] = [item]
            pos_data[q] = [pos]
            q += 1
    return inner_loop, outer_of_inner, IterSeq(var_data), IterSeq(pos_data)


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
