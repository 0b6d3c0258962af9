"""A global region index over a document collection (paper §3.3 (ii)).

The paper weighs two designs for StandOff matching:

* **XPath-step semantics** (chosen): a step matches only nodes from the
  context node's own fragment, so each document keeps its own region
  index — small, local, and updates touch one document's index;
* **cross-fragment function semantics**: ``select-narrow($ctx)`` could
  return matches from *any* stored document — natural when several
  annotation layers over the same BLOB live in separate documents — but
  it "implies a global index over the entire document collection must be
  maintained", which may contain "many data items that are not needed if
  a small set of documents is queried" and causes "needless transaction
  conflicts among documents in case of updates".

This module implements that second design so the trade-off can be
measured (the ``global_index`` family of ``benchmarks/scenarios.py``).
The global index is a start-clustered region table whose node ids are
*composite*: row ids mapping to ``(fragment, node)`` pairs, so all
existing merge joins run on it unchanged.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.mergejoin_ll import IterContext, ll_join
from repro.core.naive import StandoffOp
from repro.core.region_index import RegionIndex, RegionTable


class GlobalRegionIndex:
    """One start-clustered index over every fragment of a collection."""

    def __init__(self, per_fragment: Mapping[int, RegionIndex]):
        rows: list[tuple] = []           # (start, end, composite_id)
        pairs: list[tuple[int, int]] = []  # composite id -> (frag, node)
        composite_of: dict[tuple[int, int], int] = {}
        for fragment in sorted(per_fragment):
            table = per_fragment[fragment].table
            for start, end, node_id in zip(table.starts.tolist(),
                                           table.ends.tolist(),
                                           table.ids.tolist()):
                key = (fragment, node_id)
                composite = composite_of.get(key)
                if composite is None:
                    composite = len(pairs)
                    composite_of[key] = composite
                    pairs.append(key)
                rows.append((start, end, composite))
        self._pairs = pairs
        self._composite_of = composite_of
        self._table = RegionTable.from_rows(rows)

    def __len__(self) -> int:
        return len(self._table)

    @property
    def table(self) -> RegionTable:
        return self._table

    def fragment_count(self) -> int:
        return len({frag for frag, _node in self._pairs})

    def composite_id(self, fragment: int, node_id: int) -> int | None:
        return self._composite_of.get((fragment, node_id))

    def pair_of(self, composite: int) -> tuple[int, int]:
        return self._pairs[composite]

    def restrict(self, wanted: Iterable[tuple[int, int]]) -> RegionTable:
        """Candidate pushdown by (fragment, node) pairs."""
        ids = [self._composite_of[key] for key in wanted
               if key in self._composite_of]
        return self._table.restrict_to_ids(
            np.asarray(sorted(ids), dtype=np.int64))


def global_standoff_join(op: StandoffOp,
                         context: Sequence[tuple[int, int, int]],
                         index: GlobalRegionIndex,
                         per_fragment: Mapping[int, RegionIndex],
                         candidates: RegionTable | None = None,
                         *, active_structure: str = "list",
                         ) -> dict[int, list[tuple[int, int]]]:
    """Cross-fragment StandOff join (the §3.3 function semantics).

    Context regions are fetched from their own fragments' indexes;
    candidates come from the whole collection (or an explicit
    restriction).  Positions are compared across fragments — the
    multiple-annotation-layers-over-one-BLOB use case.

    :param context: ``(iter, fragment, node_id)`` triples.
    :returns: ``iter -> [(fragment, node_id), ...]`` in collection order
        (fragment, then node id).
    """
    rows = []
    for iteration, fragment, node_id in context:
        frag_index = per_fragment.get(fragment)
        if frag_index is None:
            continue
        area = frag_index.area_of(node_id)
        if area is None:
            continue
        for region in area.regions:
            rows.append((iteration, _context_key(fragment, node_id),
                         region.start, region.end))
    iter_context = IterContext.from_rows(rows)
    table = candidates if candidates is not None else index.table
    raw = ll_join(op, iter_context, table,
                  active_structure=active_structure)
    out: dict[int, list[tuple[int, int]]] = {}
    for iteration, composites in raw.items():
        pairs = sorted(index.pair_of(c) for c in composites)
        out[iteration] = pairs
    return out


def _context_key(fragment: int, node_id: int) -> int:
    """A collision-free synthetic id for context rows (context ids never
    meet candidate ids inside the join, they only separate areas)."""
    return fragment * 1_000_000_007 + node_id
