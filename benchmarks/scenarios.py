"""The scenario table: every kernel experiment of the benchmark suite,
each defined once.

The paper's evaluation has four parts, and each is a family here:
Figure 6 (``figure6``, ``udf_nocand``), the §5 active-list/heap
ablation (``active_structure``), the §3.3 per-document vs global index
and pushdown ablations (``global_index``, ``pushdown``) and the §4.6
StandOff-vs-Staircase comparison (``staircase``, with the Staircase
kernels' own tables ``staircase_axes`` and ``staircase_siblings``);
``region_index`` and ``table_joins`` time the §3.1/§4.3 building
blocks underneath.

A :class:`Family` names its scenario prefix, its smoke size and its
full sizes, a ``setup(size)`` that builds the inputs once per size, and
``rows(size, inputs)`` yielding one :class:`Row` per timed callable.
``run_all.py`` times the rows into a trajectory file and
``bench_scenarios.py`` hands them to pytest-benchmark.  Kernel agreement
is not asserted here: the tier-1 differential suites own it.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple

from repro.bench.figure6 import QUERIES, build_database
from repro.core import (
    RegionIndex,
    RegionTable,
    StandoffOp,
    basic_join,
    ll_join,
    vec_join,
)
from repro.core.global_index import GlobalRegionIndex, global_standoff_join
from repro.core.mergejoin_ll import IterContext
from repro.staircase.kernels_vec import vec_staircase_join
from repro.staircase.loop_lifted import ll_axis_join, ll_descendant_join
from repro.xmark import query_text
from repro.xmldb import Element
from repro.xquery.axes import AXIS_FUNCTIONS

#: Kernel labels of the trajectory records (``None`` for rows that run
#: no join kernel).
LL_LIST = "ll-list"
LL_HEAP = "ll-heap"
LL_DICT = "ll-dict"        # dict-shaped staircase reference path
DOM_WALK = "dom-walk"      # per-node DOM walk (the basic-strategy step)
VECTORIZED = "vectorized"

#: Every label the table produces; a committed record with another one
#: (``auto``, gone with the per-join size rule) belongs to a retired row.
KERNEL_LABELS = (LL_LIST, LL_HEAP, LL_DICT, DOM_WALK, VECTORIZED, None)


class Row(NamedTuple):
    """One timed callable: its key is ``(scenario, kernel)``."""

    scenario: str
    kernel: str | None
    n: int                      # workload size recorded with the time
    fn: Callable[[], object]
    extra: dict = {}            # further record fields (scale, size, ...)


@dataclass(frozen=True)
class Family:
    """One scenario family of the table."""

    name: str                   # scenario-name prefix, before the first "."
    smoke: Any                  # the size of a ``--smoke`` run
    full: tuple                 # the sizes of a full run, smallest first
    setup: Callable[[Any], Any]
    rows: Callable[[Any, Any], Iterator[Row]]

    def sizes(self, smoke: bool) -> tuple:
        return (self.smoke,) if smoke else self.full

    def at(self, size) -> Iterator[Row]:
        """The rows of one size, its inputs built once."""
        return self.rows(size, self.setup(size))


def synthetic_regions(n: int, *, span: int = 1_000_000, max_len: int = 500,
                      seed: int = 1) -> RegionIndex:
    """A region index of n random (overlapping) annotations."""
    rng = random.Random(seed)
    entries = []
    for node_id in range(n):
        start = rng.randrange(span)
        entries.append((node_id, start, start + rng.randrange(max_len)))
    return RegionIndex.build(entries)


def synthetic_iter_context(n_iters: int, per_iter: int, *, span: int,
                           max_len: int, seed: int = 2) -> IterContext:
    """A loop-lifted context of n_iters iterations, per_iter random
    regions each."""
    rng = random.Random(seed)
    rows = []
    node_id = 10_000_000
    for it in range(n_iters):
        for _ in range(per_iter):
            start = rng.randrange(span)
            rows.append((it, node_id, start, start + rng.randrange(max_len)))
            node_id += 1
    return IterContext.from_rows(rows)


def _join_kernels(op, context, candidates):
    """(kernel label, callable) for one loop-lifted StandOff join."""
    return [
        (LL_LIST, lambda: ll_join(op, context, candidates,
                                  active_structure="list")),
        (LL_HEAP, lambda: ll_join(op, context, candidates,
                                  active_structure="heap")),
        (VECTORIZED, lambda: vec_join(op, context, candidates)),
    ]


def _axis_kernels(shredded, axis, context, candidates):
    """(kernel label, callable) for one loop-lifted Staircase axis step."""
    return [
        (LL_DICT, lambda: ll_axis_join(shredded, axis, context,
                                       candidates)),
        (VECTORIZED, lambda: vec_staircase_join(axis, shredded, context,
                                                candidates)),
    ]


# ----------------------------------------------------------------------
# synthetic region workloads (§3.1, §4.3, §5, §3.3)
# ----------------------------------------------------------------------

def _region_index_setup(n):
    index = synthetic_regions(n, seed=31)
    entries = [(int(i), int(s), int(e))
               for s, e, i in index.table.iter_rows()]
    return index, entries


def _region_index_rows(n, inputs):
    index, entries = inputs
    wanted = index.annotated_ids()[::10]
    context_ids = index.annotated_ids()[:500].tolist()
    yield Row("region_index.build", None, n,
              lambda: RegionIndex.build(entries))
    yield Row("region_index.intersection", None, n,
              lambda: index.candidates(wanted))
    yield Row("region_index.fetch", None, n,
              lambda: index.fetch(context_ids))


def _table_joins_setup(size):
    n, n_iters, per_iter = size
    return (synthetic_regions(n, seed=3), synthetic_regions(n, seed=4),
            synthetic_iter_context(n_iters, per_iter, span=1_000_000,
                                   max_len=500))


def _table_joins_rows(size, inputs):
    n = size[0]
    index, context, lifted = inputs
    for op in StandoffOp:
        yield Row(f"table_joins.basic.{op.value}", LL_LIST, n,
                  lambda op=op: basic_join(op, context.table, index.table))
    for op in (StandoffOp.SELECT_NARROW, StandoffOp.SELECT_WIDE):
        for kernel, fn in _join_kernels(op, lifted, index.table):
            yield Row(f"table_joins.lifted.{op.value}", kernel, n, fn)


def _active_structure_setup(size):
    """Short regions keep the active list tiny (the XMark case); long,
    heavily overlapping ones across many iterations grow it, where the
    heap's O(log n) maintenance can pay off (§5)."""
    n_iters, per_iter, n_cand = size
    span = 1_000_000
    inputs = {}
    for kind in ("shallow", "deep"):
        rng = random.Random(9)
        rows = []
        node = 0
        for it in range(n_iters):
            for _ in range(per_iter):
                start = rng.randrange(span)
                length = rng.randrange(span // 3) if kind == "deep" \
                    else rng.randrange(200)
                rows.append((it, node, start, min(span, start + length)))
                node += 1
        cand_rows = []
        for i in range(n_cand):
            start = rng.randrange(span)
            cand_rows.append((start, start + rng.randrange(150),
                              10_000_000 + i))
        inputs[kind] = (IterContext.from_rows(rows),
                        RegionTable.from_rows(cand_rows))
    return inputs


def _active_structure_rows(size, inputs):
    n_cand = size[2]
    for kind, (context, candidates) in inputs.items():
        for kernel, fn in _join_kernels(StandoffOp.SELECT_NARROW,
                                        context, candidates):
            yield Row(f"active_structure.{kind}", kernel, n_cand, fn)


def _global_index_setup(size):
    """One region index per document vs one over the collection: the
    query touches one document, maintenance adds one (§3.3 (ii))."""
    n_docs, per_doc = size
    span = 1_000_000
    rng = random.Random(5)
    collection = {}
    for frag in range(1, n_docs + 1):
        entries = [(node_id, start, start + rng.randrange(400))
                   for node_id in range(per_doc)
                   for start in (rng.randrange(span),)]
        collection[frag] = RegionIndex.build(entries)
    added = [(i, rng.randrange(span), rng.randrange(span, span + 400))
             for i in range(per_doc)]
    return collection, GlobalRegionIndex(collection), added


def _global_index_rows(size, inputs):
    n_docs, per_doc = size
    n = n_docs * per_doc
    collection, global_index, added = inputs
    index = collection[1]
    context_rows = [(0, 1, int(node_id))
                    for node_id in index.annotated_ids()[:200]]
    context = index.fetch([nid for _it, _frag, nid in context_rows])
    yield Row("global_index.query.per_document", LL_LIST, per_doc,
              lambda: basic_join(StandoffOp.SELECT_WIDE, context,
                                 index.table))
    yield Row("global_index.query.global", LL_LIST, n,
              lambda: global_standoff_join(StandoffOp.SELECT_WIDE,
                                           context_rows, global_index,
                                           collection))
    yield Row("global_index.maintenance.per_document", None, per_doc,
              lambda: RegionIndex.build(added))
    yield Row("global_index.maintenance.global", None, n,
              lambda: GlobalRegionIndex(collection))


def _pushdown_setup(size):
    n, n_ctx = size
    return (synthetic_regions(n, seed=21),
            synthetic_regions(n_ctx, span=1_000_000, max_len=2_000,
                              seed=22).table)


def _pushdown_rows(size, inputs):
    """A name test pushed into the join as a candidate sequence vs
    applied to the join's full result (§3.3 (iii), §4.3)."""
    n = size[0]
    big_index, context_table = inputs
    for selectivity in (0.01, 0.1, 0.5):
        wanted = big_index.annotated_ids()[::max(1, int(1 / selectivity))]
        candidates = big_index.candidates(wanted)
        wanted_set = set(wanted.tolist())

        def post_filter(wanted_set=wanted_set):
            full = basic_join(StandoffOp.SELECT_WIDE, context_table,
                              big_index.table)
            return [nid for nid in full if nid in wanted_set]

        extra = {"selectivity": selectivity}
        yield Row(f"pushdown.pushed.sel{selectivity}", LL_LIST, n,
                  lambda candidates=candidates: basic_join(
                      StandoffOp.SELECT_WIDE, context_table, candidates),
                  extra)
        yield Row(f"pushdown.postfilter.sel{selectivity}", LL_LIST, n,
                  post_filter, extra)


# ----------------------------------------------------------------------
# StandOff XMark workloads (Figure 6, §4.6)
# ----------------------------------------------------------------------

@functools.cache
def xmark(scale: float):
    """The StandOff XMark ``(database, size label)`` of one scale, built
    once per process: several families share a scale, and scale 16
    takes seconds to build."""
    return build_database(scale)


def _xmark_size(db) -> int:
    return len(db.store.get("xmark.xml").region_index())


#: (strategy, kernel, kernel label, scenario suffix) per Figure 6 series.
_FIGURE6_SERIES = (
    ("udf", "ll", None, ""),        # the quadratic baseline: no join kernel
    ("basic", "ll", LL_LIST, ""),
    ("ll", "ll", LL_LIST, ""),
    ("ll", "vectorized", VECTORIZED, ".vectorized"),
)


def _figure6_rows(scale, built):
    db, label = built
    n = _xmark_size(db)
    for query_id in QUERIES:
        query = query_text(query_id, "xmark.xml", standoff=True)
        for strategy, kernel, kernel_label, suffix in _FIGURE6_SERIES:
            yield Row(f"figure6.{query_id}.{strategy}{suffix}",
                      kernel_label, n,
                      lambda q=query, s=strategy, k=kernel: db.query(
                          q, strategy=s, kernel=k),
                      {"strategy": strategy, "scale": scale,
                       "size": label})


#: §4.6 claim A: the Figure 2 UDF with no candidate sequence (a
#: select-narrow with no name restriction) — a DNF at every size in the
#: paper, so it runs on a tiny document.
NOCAND_QUERY = ('for $b in doc("xmark.xml")//site'
                '/select-narrow::open_auctions\n'
                '         /select-narrow::open_auction\n'
                'return count($b/select-narrow::*)')


def _udf_nocand_rows(scale, built):
    db, _label = built
    n = _xmark_size(db)
    extra = {"scale": scale}
    q2 = query_text("q2", "xmark.xml", standoff=True)
    yield Row("udf_nocand.udf_without_candidates", None, n,
              lambda: db.query(NOCAND_QUERY, strategy="udf"), extra)
    yield Row("udf_nocand.udf_with_candidates", None, n,
              lambda: db.query(q2, strategy="udf"), extra)
    yield Row("udf_nocand.ll_reference", LL_LIST, n,
              lambda: db.query(NOCAND_QUERY, strategy="ll"), extra)


@dataclass(frozen=True)
class AuctionWorkload:
    """One iteration per ``open_auction``, the ``bidder`` elements as
    candidates, as pre ranks (Staircase) and as regions (StandOff)."""

    label: str
    shredded: Any
    auctions: list              # (iter, pre) context rows
    bidders: Any                # bidder pre ranks
    context: IterContext        # the auctions with their regions
    bidder_regions: RegionTable


def _auction_workload(scale) -> AuctionWorkload:
    db, label = xmark(scale)
    stored = db.store.get("xmark.xml")
    shredded = stored.shredded
    index = stored.region_index()
    auctions = [(it, int(pre)) for it, pre in enumerate(
        shredded.elements_named("open_auction").tolist())]
    bidders = shredded.elements_named("bidder")
    fetched = index.fetch([pre for _it, pre in auctions])
    spans = {i: (s, e) for s, e, i in zip(
        fetched.starts.tolist(), fetched.ends.tolist(),
        fetched.ids.tolist())}
    context = IterContext.from_rows(
        (it, pre, *spans[pre]) for it, pre in auctions)
    return AuctionWorkload(label, shredded, auctions, bidders, context,
                           index.candidates(bidders))


def _staircase_rows(scale, w: AuctionWorkload):
    """§4.6 claim C: loop-lifted select-narrow against the loop-lifted
    descendant Staircase Join, same context, same candidates."""
    extra = {"scale": scale, "size": w.label}
    n = len(w.context) + len(w.bidder_regions)
    yield Row(f"staircase.scale{scale}.descendant_staircase", None, n,
              lambda: ll_descendant_join(w.shredded, w.auctions,
                                         w.bidders), extra)
    for kernel, fn in _join_kernels(StandoffOp.SELECT_NARROW, w.context,
                                    w.bidder_regions):
        yield Row(f"staircase.scale{scale}.select_narrow", kernel, n, fn,
                  extra)


def _staircase_axes_rows(scale, w: AuctionWorkload):
    extra = {"scale": scale, "size": w.label}
    n = len(w.auctions) + len(w.bidders)
    for axis in ("descendant", "ancestor", "child", "following",
                 "preceding"):
        for kernel, fn in _axis_kernels(w.shredded, axis, w.auctions,
                                        w.bidders):
            yield Row(f"staircase_axes.scale{scale}.{axis}", kernel, n,
                      fn, extra)


def _staircase_siblings_rows(scale, w: AuctionWorkload):
    """One iteration per ``bidder``, bidders as candidates: the bidders
    of one auction are each other's siblings."""
    extra = {"scale": scale, "size": w.label}
    context = [(it, int(pre)) for it, pre in enumerate(w.bidders.tolist())]
    n = 2 * len(context)
    for axis in ("following-sibling", "preceding-sibling"):
        name = f"staircase_siblings.scale{scale}.{axis.replace('-', '_')}"

        def dom_walk(axis_fn=AXIS_FUNCTIONS[axis]):
            out = {}
            for it, pre in context:
                matched = [s.pre for s in axis_fn(w.shredded.node_by_pre(pre))
                           if isinstance(s, Element) and s.tag == "bidder"]
                if matched:
                    out[it] = matched
            return out

        yield Row(name, DOM_WALK, n, dom_walk, extra)
        for kernel, fn in _axis_kernels(w.shredded, axis, context,
                                        w.bidders):
            yield Row(name, kernel, n, fn, extra)


_XMARK_SCALES = (0.5, 4.0, 16.0)

FAMILIES = (
    Family("region_index", 5_000, (100_000,),
           _region_index_setup, _region_index_rows),
    Family("table_joins", (2_000, 50, 5), ((20_000, 500, 20),),
           _table_joins_setup, _table_joins_rows),
    Family("active_structure", (50, 8, 3_000), ((400, 25, 30_000),),
           _active_structure_setup, _active_structure_rows),
    Family("global_index", (5, 800), ((20, 5_000),),
           _global_index_setup, _global_index_rows),
    Family("pushdown", (6_000, 100), ((60_000, 500),),
           _pushdown_setup, _pushdown_rows),
    Family("figure6", 0.05, (0.5,), xmark, _figure6_rows),
    Family("udf_nocand", 0.02, (0.05,), xmark, _udf_nocand_rows),
    Family("staircase", 0.25, _XMARK_SCALES,
           _auction_workload, _staircase_rows),
    Family("staircase_axes", 0.25, _XMARK_SCALES,
           _auction_workload, _staircase_axes_rows),
    Family("staircase_siblings", 0.25, _XMARK_SCALES,
           _auction_workload, _staircase_siblings_rows),
)
