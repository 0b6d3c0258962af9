#!/usr/bin/env python
"""Unified benchmark runner: every ``bench_*.py`` scenario, one JSON.

Executes the workload behind each benchmark file in this directory with
wall-clock timing (median of N repeats, DNF budget via SIGALRM) and
emits a machine-readable trajectory file::

    PYTHONPATH=src python benchmarks/run_all.py             # full run
    PYTHONPATH=src python benchmarks/run_all.py --smoke     # CI-sized
    PYTHONPATH=src python benchmarks/run_all.py --only staircase

Each scenario record carries ``scenario`` (dotted name), ``file`` (the
bench_*.py it mirrors), ``kernel`` (``ll-list`` | ``ll-heap`` |
``ll-dict`` | ``vectorized`` | ``auto`` | ``null`` for non-join
scenarios), ``n`` (workload size), ``seconds`` (median wall time;
``null`` + ``dnf: true`` on budget overrun) and ``repeats``.  The
staircase-vs-standoff, staircase-axis, sibling-axis, sharding and
positional scenarios sweep scales; the summary block records the
vectorized-kernel, fan-out, positional-predicate and plan-cache
speedups at the largest size — the perf-trajectory headlines.  The
``sharding.*`` family measures the worker-pool fan-out
(:mod:`repro.exec.sharding`) against the deterministic serial
reference, per join family (``.serial`` vs ``.workers4`` scenario
variants; each record carries the ``workers`` setting).  The
``positional.*`` family pits the vectorized positional-predicate
filter against the per-node DOM walk; ``plancache.*`` measures the
cross-query compiled-plan cache warm vs cold.
The ``coldstart.*`` family times serving a saved store (zero-copy
``np.memmap`` open) against rebuilding the shred from XML text, and
``procpool.*`` pits the process-pool executor against the thread pool
and the serial reference over store-backed documents
(``.serial``/``.threads4``/``.procs4`` variants).  The ``serving.*``
family drives a mixed point-lookup/scan workload through the
concurrent query server and records batch time plus p50/p99
per-query latency and throughput (see ``benchmarks/README.md``).

Output defaults to ``BENCH_PR9.json`` (``BENCH_SMOKE.json`` with
``--smoke``) at the repository root.

**Trajectory comparison**: a full run whose label is ``PR<k>`` is
automatically diffed against the committed ``BENCH_PR<k-1>.json``
(override with ``--baseline PATH``, disable with ``--baseline none``).
Missing ``scenario``/``kernel`` keys and *new* DNFs fail the run
(exit 1); per-key speedup ratios are reported.  Full runs additionally
enforce the *required scenario families*
(:data:`REQUIRED_SCENARIO_PREFIXES`, override with ``--require``): a
trajectory file without any key in a required family — e.g. the
``staircase_axes.*`` scenarios — fails even when the baseline predates
the family.  ``--compare PATH`` skips running entirely and just
applies both gates to an existing trajectory file — the CI guard for
committed trajectory points::

    python benchmarks/run_all.py --compare BENCH_PR3.json \
        --baseline BENCH_PR2.json
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import platform
import re
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent
for path in (str(_ROOT / "src"), str(_HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np                                        # noqa: E402

from conftest import synthetic_iter_context, synthetic_regions  # noqa: E402
from repro.bench.figure6 import build_database            # noqa: E402
from repro.bench.harness import median_runtime            # noqa: E402
from repro.core import (                                  # noqa: E402
    RegionIndex,
    RegionTable,
    StandoffOp,
    basic_join,
    kernel_join,
    ll_join,
    vec_join,
)
from repro.core.global_index import (                     # noqa: E402
    GlobalRegionIndex,
    global_standoff_join,
)
from repro.core.mergejoin_ll import IterContext           # noqa: E402
from repro.staircase.loop_lifted import ll_descendant_join  # noqa: E402
from repro.xmark import query_text                        # noqa: E402
from repro.xquery import Database                         # noqa: E402

#: Kernel labels used in the JSON records.
LL_LIST = "ll-list"
LL_HEAP = "ll-heap"
LL_DICT = "ll-dict"        # dict-shaped staircase reference path
DOM_WALK = "dom-walk"      # per-node DOM walk (the basic-strategy step)
VECTORIZED = "vectorized"
AUTO = "auto"

#: Scenario families a full trajectory file must contain — the gate
#: that keeps newly-introduced scenario groups from silently dropping
#: out of later runs (``--require`` overrides; ``--require none``
#: disables).
REQUIRED_SCENARIO_PREFIXES = ("staircase.", "staircase_axes.",
                              "sharding.", "staircase_siblings.",
                              "positional.", "plancache.",
                              "coldstart.", "procpool.", "serving.")


class Runner:
    """Collects scenario records with shared timing settings."""

    def __init__(self, *, smoke: bool, only: str | None,
                 repeats: int, budget: float):
        self.smoke = smoke
        self.only = only
        self.repeats = repeats
        self.budget = budget
        self.records: list[dict] = []

    def wanted(self, scenario: str) -> bool:
        return self.only is None or self.only in scenario

    def any_wanted(self, *scenarios: str) -> bool:
        """True when at least one scenario name passes the --only filter
        (lets scenario functions skip expensive setup entirely)."""
        return any(self.wanted(name) for name in scenarios)

    def measure(self, scenario: str, file: str, kernel: str | None,
                n: int, fn, label: str | None = None, **extra) -> float:
        """Time one scenario, record it, and return the median seconds
        (``inf`` when the budget was exceeded or the scenario was
        filtered out)."""
        if not self.wanted(scenario):
            return math.inf
        seconds = median_runtime(fn, self.budget, self.repeats)
        dnf = math.isinf(seconds)
        self.records.append({
            "scenario": scenario,
            "file": file,
            "kernel": kernel,
            "n": int(n),
            "seconds": None if dnf else round(seconds, 6),
            "repeats": self.repeats,
            "dnf": dnf,
            **extra,
        })
        shown = "DNF" if dnf else f"{seconds * 1e3:10.3f}ms"
        print(f"  {label or scenario:58s} {shown}", flush=True)
        return seconds


def _join_kernels(op, context, candidates):
    """(kernel label, callable) for one loop-lifted join workload."""
    return [
        (LL_LIST, lambda: ll_join(op, context, candidates,
                                  active_structure="list")),
        (LL_HEAP, lambda: ll_join(op, context, candidates,
                                  active_structure="heap")),
        (VECTORIZED, lambda: vec_join(op, context, candidates)),
        (AUTO, lambda: kernel_join(op, context, candidates,
                                   kernel="auto")),
    ]


# ----------------------------------------------------------------------
# scenarios (one function per bench_*.py file)
# ----------------------------------------------------------------------

def scenario_region_index(r: Runner) -> None:
    file = "bench_region_index.py"
    if not r.any_wanted("region_index.build", "region_index.intersection",
                        "region_index.fetch"):
        return
    n = 5_000 if r.smoke else 100_000
    index = synthetic_regions(n, seed=31)
    entries = [(int(i), int(s), int(e))
               for s, e, i in index.table.iter_rows()]
    r.measure("region_index.build", file, None, n,
              lambda: RegionIndex.build(entries))
    wanted = index.annotated_ids()[::10]
    r.measure("region_index.intersection", file, None, n,
              lambda: index.candidates(wanted))
    context_ids = index.annotated_ids()[:500].tolist()
    r.measure("region_index.fetch", file, None, n,
              lambda: index.fetch(context_ids))


def scenario_table_joins(r: Runner) -> None:
    file = "bench_table_standoff_joins.py"
    if not r.any_wanted(
            *(f"table_joins.basic.{op.value}" for op in StandoffOp),
            "table_joins.lifted.select-narrow",
            "table_joins.lifted.select-wide"):
        return
    n = 2_000 if r.smoke else 20_000
    index = synthetic_regions(n, seed=3)
    context = synthetic_regions(n, seed=4)
    for op in StandoffOp:
        r.measure(f"table_joins.basic.{op.value}", file, LL_LIST, n,
                  lambda op=op: basic_join(op, context.table, index.table))
    n_iters, per_iter = (50, 5) if r.smoke else (500, 20)
    lifted = synthetic_iter_context(n_iters, per_iter, span=1_000_000,
                                   max_len=500)
    for op in (StandoffOp.SELECT_NARROW, StandoffOp.SELECT_WIDE):
        for kernel, fn in _join_kernels(op, lifted, index.table):
            r.measure(f"table_joins.lifted.{op.value}", file, kernel,
                      n, fn)


def scenario_active_structures(r: Runner) -> None:
    import random as _random

    file = "bench_ablation_active_heap.py"
    n_iters, per_iter, n_cand = (50, 8, 3_000) if r.smoke \
        else (400, 25, 30_000)
    for kind in ("shallow", "deep"):
        if not r.wanted(f"active_structure.{kind}"):
            continue
        rng = _random.Random(9)
        span = 1_000_000
        rows = []
        node = 0
        for it in range(n_iters):
            for _ in range(per_iter):
                start = rng.randrange(span)
                length = rng.randrange(span // 3) if kind == "deep" \
                    else rng.randrange(200)
                rows.append((it, node, start, min(span, start + length)))
                node += 1
        context = IterContext.from_rows(rows)
        cand_rows = []
        for i in range(n_cand):
            start = rng.randrange(span)
            cand_rows.append((start, start + rng.randrange(150),
                              10_000_000 + i))
        candidates = RegionTable.from_rows(cand_rows)
        for kernel, fn in _join_kernels(StandoffOp.SELECT_NARROW,
                                        context, candidates):
            r.measure(f"active_structure.{kind}", file, kernel,
                      n_cand, fn)


def scenario_global_index(r: Runner) -> None:
    import random as _random

    file = "bench_ablation_global_index.py"
    if not r.any_wanted("global_index.query.per_document",
                        "global_index.query.global",
                        "global_index.maintenance.per_document",
                        "global_index.maintenance.global"):
        return
    n_docs, per_doc = (5, 800) if r.smoke else (20, 5_000)
    span = 1_000_000
    rng = _random.Random(5)
    collection = {}
    for frag in range(1, n_docs + 1):
        entries = [(node_id, start, start + rng.randrange(400))
                   for node_id in range(per_doc)
                   for start in (rng.randrange(span),)]
        collection[frag] = RegionIndex.build(entries)
    global_index = GlobalRegionIndex(collection)
    index = collection[1]
    ids = index.annotated_ids()[:200]
    context_rows = [(0, 1, int(node_id)) for node_id in ids]
    context = index.fetch([nid for _it, _frag, nid in context_rows])
    n = n_docs * per_doc
    r.measure("global_index.query.per_document", file, LL_LIST, per_doc,
              lambda: basic_join(StandoffOp.SELECT_WIDE, context,
                                 index.table))
    r.measure("global_index.query.global", file, LL_LIST, n,
              lambda: global_standoff_join(StandoffOp.SELECT_WIDE,
                                           context_rows, global_index,
                                           collection))
    entries = [(i, rng.randrange(span), rng.randrange(span, span + 400))
               for i in range(per_doc)]
    r.measure("global_index.maintenance.per_document", file, None,
              per_doc, lambda: RegionIndex.build(entries))
    r.measure("global_index.maintenance.global", file, None, n,
              lambda: GlobalRegionIndex(collection))


def scenario_pushdown(r: Runner) -> None:
    file = "bench_ablation_pushdown.py"
    if not r.any_wanted(*(f"pushdown.{mode}.sel{sel}"
                          for mode in ("pushed", "postfilter")
                          for sel in (0.01, 0.1, 0.5))):
        return
    n, n_ctx = (6_000, 100) if r.smoke else (60_000, 500)
    big_index = synthetic_regions(n, seed=21)
    context_table = synthetic_regions(n_ctx, span=1_000_000,
                                      max_len=2_000, seed=22).table
    for selectivity in (0.01, 0.1, 0.5):
        ids = big_index.annotated_ids()
        step = max(1, int(1 / selectivity))
        wanted = ids[::step]
        candidates = big_index.candidates(wanted)
        r.measure(f"pushdown.pushed.sel{selectivity}", file, LL_LIST, n,
                  lambda candidates=candidates: basic_join(
                      StandoffOp.SELECT_WIDE, context_table, candidates),
                  selectivity=selectivity)
        wanted_set = set(wanted.tolist())

        def post_filter(wanted_set=wanted_set):
            full = basic_join(StandoffOp.SELECT_WIDE, context_table,
                              big_index.table)
            return [nid for nid in full if nid in wanted_set]

        r.measure(f"pushdown.postfilter.sel{selectivity}", file, LL_LIST,
                  n, post_filter, selectivity=selectivity)


def scenario_figure6(r: Runner) -> None:
    variants = [("udf", "ll"), ("basic", "ll"), ("ll", "ll"),
                ("ll", "vectorized")]
    names = [f"figure6.{q}.{s}" + (".vectorized" if k == "vectorized"
                                   else "")
             for q in ("q1", "q2", "q6", "q7") for s, k in variants]
    if not r.any_wanted(*names):
        return
    scale = 0.05 if r.smoke else 0.5
    db, label = build_database(scale)
    n = len(db.store.get("xmark.xml").region_index())
    for query_id in ("q1", "q2", "q6", "q7"):
        file = f"bench_figure6_{query_id}.py"
        query = query_text(query_id, "xmark.xml", standoff=True)
        for strategy, kernel in variants:
            if strategy == "udf":
                label_kernel = None        # the quadratic baseline
            else:
                label_kernel = VECTORIZED if kernel == "vectorized" \
                    else LL_LIST
            r.measure(
                f"figure6.{query_id}.{strategy}"
                + (".vectorized" if kernel == "vectorized" else ""),
                file, label_kernel, n,
                lambda q=query, s=strategy, k=kernel: db.query(
                    q, strategy=s, kernel=k),
                strategy=strategy, scale=scale, size=label)


def scenario_udf_nocand(r: Runner) -> None:
    file = "bench_figure6_udf_nocand.py"
    if not r.any_wanted("udf_nocand.udf_without_candidates",
                        "udf_nocand.udf_with_candidates",
                        "udf_nocand.ll_reference"):
        return
    scale = 0.02 if r.smoke else 0.05
    db, label = build_database(scale)
    n = len(db.store.get("xmark.xml").region_index())
    nocand = ('for $b in doc("xmark.xml")//site'
              '/select-narrow::open_auctions\n'
              '         /select-narrow::open_auction\n'
              'return count($b/select-narrow::*)')
    r.measure("udf_nocand.udf_without_candidates", file, None, n,
              lambda: db.query(nocand, strategy="udf"), scale=scale)
    query = query_text("q2", "xmark.xml", standoff=True)
    r.measure("udf_nocand.udf_with_candidates", file, None, n,
              lambda: db.query(query, strategy="udf"), scale=scale)
    r.measure("udf_nocand.ll_reference", file, LL_LIST, n,
              lambda: db.query(nocand, strategy="ll"), scale=scale)


@functools.lru_cache(maxsize=None)
def _xmark_build(scale: float):
    # Cached: the staircase, staircase_axes and positional scenarios
    # share the same XMark build per scale (multi-second at scale 16).
    return build_database(scale)


@functools.lru_cache(maxsize=None)
def _staircase_workload(scale: float):
    db, label = _xmark_build(scale)
    stored = db.store.get("xmark.xml")
    shredded = stored.shredded
    index = stored.region_index()
    auction_pres = shredded.elements_named("open_auction")
    context_rows = [(it, int(pre))
                    for it, pre in enumerate(auction_pres.tolist())]
    candidates = shredded.elements_named("bidder")
    cand_table = index.candidates(candidates)
    fetched = index.fetch([pre for _it, pre in context_rows])
    by_id = {}
    for s, e, i in zip(fetched.starts.tolist(), fetched.ends.tolist(),
                       fetched.ids.tolist()):
        by_id[i] = (s, e)
    context = IterContext.from_rows(
        (it, pre, *by_id[pre]) for it, pre in context_rows)
    return shredded, context_rows, candidates, context, cand_table, label


def scenario_staircase(r: Runner) -> dict | None:
    """§4.6 claim C workload across document scales; returns the
    summary of the vectorized speedup at the largest size."""
    file = "bench_staircase_vs_standoff.py"
    scales = (0.25,) if r.smoke else (0.5, 4.0, 16.0)
    summary = None
    for scale in scales:
        join_name = f"staircase.scale{scale}.select_narrow"
        stair_name = f"staircase.scale{scale}.descendant_staircase"
        if not r.any_wanted(join_name, stair_name):
            continue
        shredded, context_rows, candidates, context, cand_table, label = \
            _staircase_workload(scale)
        n = len(context) + len(cand_table)
        reference = ll_join(StandoffOp.SELECT_NARROW, context, cand_table)
        assert vec_join(StandoffOp.SELECT_NARROW, context,
                        cand_table) == reference, \
            "vectorized kernel diverged from the reference join"
        r.measure(stair_name, file, None, n,
                  lambda: ll_descendant_join(shredded, context_rows,
                                             candidates),
                  scale=scale, size=label)
        timings = {}
        for kernel, fn in _join_kernels(StandoffOp.SELECT_NARROW,
                                        context, cand_table):
            timings[kernel] = r.measure(
                join_name, file, kernel, n, fn,
                label=f"{join_name}[{kernel}]", scale=scale, size=label)
        ll_list = timings.get(LL_LIST, math.inf)
        vectorized = timings.get(VECTORIZED, math.inf)
        if math.isfinite(ll_list) and math.isfinite(vectorized) \
                and vectorized > 0:
            summary = {
                "scale": scale, "size": label, "n": int(n),
                "ll_list_seconds": round(ll_list, 6),
                "vectorized_seconds": round(vectorized, 6),
                "speedup": round(ll_list / vectorized, 2),
            }
    return summary


def scenario_staircase_axes(r: Runner) -> dict | None:
    """Staircase axis family across document scales: the dict-shaped
    loop-lifted reference vs the batched columnar kernels; returns the
    descendant-axis speedup at the largest size."""
    from repro.staircase.kernels_vec import vec_staircase_join
    from repro.staircase.loop_lifted import ll_axis_join

    file = "bench_staircase_axes.py"
    axes = ("descendant", "ancestor", "child", "following", "preceding")
    scales = (0.25,) if r.smoke else (0.5, 4.0, 16.0)
    summary = None
    for scale in scales:
        names = [f"staircase_axes.scale{scale}.{axis}" for axis in axes]
        if not r.any_wanted(*names):
            continue
        shredded, context_rows, candidates, _ctx, _cand, label = \
            _staircase_workload(scale)
        n = len(context_rows) + len(candidates)
        for axis in axes:
            name = f"staircase_axes.scale{scale}.{axis}"
            if scale == scales[0]:
                # Kernel-agreement guard at the cheapest scale only;
                # the committed differential suite covers the rest.
                assert vec_staircase_join(
                    axis, shredded, context_rows,
                    candidates).to_dict() == ll_axis_join(
                        shredded, axis, context_rows, candidates), \
                    f"staircase kernels diverged on {axis}"
            timings = {}
            for kernel, fn in (
                    (LL_DICT, lambda axis=axis: ll_axis_join(
                        shredded, axis, context_rows, candidates)),
                    (VECTORIZED, lambda axis=axis: vec_staircase_join(
                        axis, shredded, context_rows, candidates))):
                timings[kernel] = r.measure(
                    name, file, kernel, n, fn,
                    label=f"{name}[{kernel}]", scale=scale, size=label)
            if axis == "descendant" \
                    and math.isfinite(timings[LL_DICT]) \
                    and math.isfinite(timings[VECTORIZED]) \
                    and timings[VECTORIZED] > 0:
                summary = {
                    "scale": scale, "size": label, "n": int(n),
                    "ll_dict_seconds": round(timings[LL_DICT], 6),
                    "vectorized_seconds": round(timings[VECTORIZED], 6),
                    "speedup": round(timings[LL_DICT]
                                     / timings[VECTORIZED], 2),
                }
    return summary


@functools.lru_cache(maxsize=None)
def _sibling_workload(scale: float):
    """One iteration per ``bidder`` element, bidders as candidates —
    the bidders inside one auction are each other's siblings, so both
    sibling axes produce non-trivial per-iteration windows."""
    shredded, _rows, bidders, _ctx, _cand, label = \
        _staircase_workload(scale)
    context_rows = [(it, int(pre))
                    for it, pre in enumerate(bidders.tolist())]
    return shredded, context_rows, bidders, label


def scenario_staircase_siblings(r: Runner) -> dict | None:
    """Sibling-axis kernels: the per-node DOM walk (the pre-PR5 serving
    path) vs the dict-shaped reference vs the batched columnar kernel;
    returns the following-sibling speedup over the DOM walk at the
    largest size."""
    from repro.staircase.kernels_vec import vec_staircase_join
    from repro.staircase.loop_lifted import ll_axis_join
    from repro.xmldb import Element
    from repro.xquery.axes import AXIS_FUNCTIONS

    file = "bench_staircase_siblings.py"
    axes = ("following-sibling", "preceding-sibling")
    scales = (0.25,) if r.smoke else (0.5, 4.0, 16.0)
    summary = None
    for scale in scales:
        names = {axis: (f"staircase_siblings.scale{scale}."
                        f"{axis.replace('-', '_')}") for axis in axes}
        if not r.any_wanted(*names.values()):
            continue
        shredded, context_rows, bidders, label = _sibling_workload(scale)
        n = 2 * len(context_rows)
        for axis in axes:
            name = names[axis]
            axis_fn = AXIS_FUNCTIONS[axis]
            if scale == scales[0]:
                # Kernel-agreement guard at the cheapest scale only;
                # the committed differential suite covers the rest.
                assert vec_staircase_join(
                    axis, shredded, context_rows,
                    bidders).to_dict() == ll_axis_join(
                        shredded, axis, context_rows, bidders), \
                    f"sibling kernels diverged on {axis}"

            def dom_walk(axis_fn=axis_fn):
                out = {}
                for it, pre in context_rows:
                    node = shredded.node_by_pre(pre)
                    matched = [s.pre for s in axis_fn(node)
                               if isinstance(s, Element)
                               and s.tag == "bidder"]
                    if matched:
                        out[it] = matched
                return out

            timings = {}
            for kernel, fn in (
                    (DOM_WALK, dom_walk),
                    (LL_DICT, lambda axis=axis: ll_axis_join(
                        shredded, axis, context_rows, bidders)),
                    (VECTORIZED, lambda axis=axis: vec_staircase_join(
                        axis, shredded, context_rows, bidders))):
                timings[kernel] = r.measure(
                    name, file, kernel, n, fn,
                    label=f"{name}[{kernel}]", scale=scale, size=label)
            if axis == "following-sibling" \
                    and math.isfinite(timings[DOM_WALK]) \
                    and math.isfinite(timings[VECTORIZED]) \
                    and timings[VECTORIZED] > 0:
                summary = {
                    "scale": scale, "size": label, "n": int(n),
                    "dom_walk_seconds": round(timings[DOM_WALK], 6),
                    "vectorized_seconds": round(timings[VECTORIZED], 6),
                    "speedup": round(timings[DOM_WALK]
                                     / timings[VECTORIZED], 2),
                }
    return summary


@functools.lru_cache(maxsize=None)
def _sharding_standoff_workload(scale: float, smoke: bool):
    """A dense loop-lifted StandOff workload whose iteration count
    sweeps with *scale* (the candidate table stays fixed, like the
    ``table_joins`` family)."""
    n_cand = 2_000 if smoke else 20_000
    n_iters = max(4, int(round((8 if smoke else 31.25) * scale)))
    per_iter = 20
    index = synthetic_regions(n_cand, seed=3)
    ids = index.annotated_ids().tolist()
    context = []
    cursor = 0
    for it in range(n_iters):
        for _ in range(per_iter):
            context.append((it, 0, ids[cursor % len(ids)]))
            cursor += 17
    return context, {0: index}, n_cand


def scenario_sharding(r: Runner) -> dict | None:
    """Sharded fan-out vs the serial reference, both join families;
    returns the StandOff fan-out speedup at the largest scale."""
    from repro.core.steps import Strategy, standoff_step
    from repro.staircase import staircase_join

    file = "bench_sharding.py"
    scales = (0.25,) if r.smoke else (0.5, 4.0, 16.0)
    variants = (("serial", "serial"), ("workers4", 4))
    shard_min_rows = 512
    summary = None
    for scale in scales:
        ops = {"standoff_select_wide": StandoffOp.SELECT_WIDE,
               "standoff_select_narrow": StandoffOp.SELECT_NARROW}
        names = [f"sharding.scale{scale}.{group}.{tag}"
                 for group in (*ops, "staircase_following")
                 for tag, _w in variants]
        if not r.any_wanted(*names):
            continue
        context, indexes, n_cand = _sharding_standoff_workload(
            scale, r.smoke)
        n = len(context) + n_cand
        for group, op in ops.items():
            def run(workers, op=op):
                return standoff_step(
                    op, context, indexes,
                    strategy=Strategy.LOOP_LIFTED, kernel="vectorized",
                    workers=workers, shard_min_rows=shard_min_rows)

            # Divergence guard at every scale — the planner only fans
            # out above 2 x shard_min_rows rows, so checking just the
            # smallest scale would compare serial to serial.
            assert run("serial") == run(4), \
                f"sharded standoff diverged from serial ({group})"
            timings = {}
            for tag, workers in variants:
                timings[tag] = r.measure(
                    f"sharding.scale{scale}.{group}.{tag}", file,
                    VECTORIZED, n,
                    lambda workers=workers: run(workers),
                    label=f"sharding.scale{scale}.{group}[{tag}]",
                    scale=scale, workers=workers,
                    shard_min_rows=shard_min_rows)
            if group == "standoff_select_wide" \
                    and math.isfinite(timings["serial"]) \
                    and math.isfinite(timings["workers4"]) \
                    and timings["workers4"] > 0:
                summary = {
                    "scale": scale, "n": int(n),
                    "serial_seconds": round(timings["serial"], 6),
                    "workers4_seconds": round(timings["workers4"], 6),
                    "speedup": round(timings["serial"]
                                     / timings["workers4"], 2),
                }
        shredded, context_rows, candidates, _ctx, _cand, label = \
            _staircase_workload(scale)
        def run_stair(workers):
            return staircase_join(
                "following", shredded, context_rows, candidates,
                kernel="vectorized", workers=workers,
                shard_min_rows=shard_min_rows)

        assert run_stair("serial") == run_stair(4), \
            "sharded staircase diverged from serial"
        for tag, workers in variants:
            r.measure(
                f"sharding.scale{scale}.staircase_following.{tag}",
                file, VECTORIZED,
                len(context_rows) + len(candidates),
                lambda workers=workers: run_stair(workers),
                label=f"sharding.scale{scale}.staircase_following"
                      f"[{tag}]",
                scale=scale, size=label, workers=workers,
                shard_min_rows=shard_min_rows)
    return summary


#: Positional-predicate cases: (name, anchor element, final step).
#: ``child_mod``/``descendant_window`` are the forward-axis headline
#: shapes; the other two exercise reverse-axis position flipping.
_POSITIONAL_CASES = (
    ("child_mod", "open_auction",
     "child::bidder[position() mod 2 = 1]"),
    ("descendant_window", "open_auction",
     "descendant::*[position() < 5]"),
    ("ancestor_first", "bidder", "ancestor::*[1]"),
    ("preceding_sibling_last", "bidder",
     "preceding-sibling::*[last()]"),
)


def scenario_positional(r: Runner) -> dict | None:
    """Positional predicates off the CSR backbone: the per-node DOM
    walk (axis enumeration + per-candidate predicate evaluation — the
    pre-PR7 serving path) vs one kernel join per anchor batch plus the
    vectorized position/length mask chain.  End-to-end query records
    (``query_child_mod``: ``basic`` vs ``ll``) show the same comparison
    diluted by the anchor step and result decode; the step-level records carry
    the headline.  Returns the forward-axis speedup at the largest
    scale."""
    from repro.staircase.kernels_vec import (
        resolve_staircase_pool,
        staircase_join,
    )
    from repro.xquery import bulk
    from repro.xquery.axes import STAIRCASE_AXES
    from repro.xquery.context import DynamicContext
    from repro.xquery.parser import parse

    file = "bench_positional.py"
    scales = (0.25,) if r.smoke else (0.5, 4.0, 16.0)
    query_name = "query_child_mod"
    summary = None
    for scale in scales:
        names = [f"positional.scale{scale}.{name}"
                 for name, _a, _s in _POSITIONAL_CASES]
        names.append(f"positional.scale{scale}.{query_name}")
        if not r.any_wanted(*names):
            continue
        db, label = _xmark_build(scale)
        stored = db.store.get("xmark.xml")
        shredded = stored.shredded
        scope = DynamicContext(db.store)
        anchor_pres = {
            tag: shredded.elements_named(tag).tolist()
            for tag in ("open_auction", "bidder")}
        timings = {}
        for name, anchor_tag, step_text in _POSITIONAL_CASES:
            scenario = f"positional.scale{scale}.{name}"
            step = parse(f'doc("x.xml")/r/{step_text}').body.steps[-1]
            axis, or_self = STAIRCASE_AXES[step.axis]
            maskers = bulk.compile_positional_predicates(step.predicates)
            assert maskers is not None, step_text
            reverse = step.axis in bulk.REVERSE_AXES
            rows = [(i, pre)
                    for i, pre in enumerate(anchor_pres[anchor_tag])]
            candidates = resolve_staircase_pool(
                shredded, bulk._staircase_candidate_desc(step.test))
            n = len(rows) + len(candidates)

            def vectorized(rows=rows, candidates=candidates, axis=axis,
                           or_self=or_self, maskers=maskers,
                           reverse=reverse):
                result = staircase_join(axis, shredded, rows, candidates,
                                        or_self=or_self,
                                        kernel="vectorized")
                return bulk._apply_positional_chain(
                    result.offsets, result.values, maskers, reverse)

            def dom_walk(rows=rows, step=step):
                out = {}
                for i, pre in rows:
                    nodes = bulk._dom_positional_anchor(
                        shredded.node_by_pre(pre), step, scope)
                    if nodes:
                        out[i] = nodes
                return out

            if scale == scales[0]:
                # Serving-path agreement guard at the cheapest scale
                # only; the committed fuzz suite covers the rest.
                offsets, values = vectorized()
                bounds, vals = offsets.tolist(), values.tolist()
                got = {i: vals[bounds[i]:bounds[i + 1]]
                       for i in range(len(rows))
                       if bounds[i + 1] > bounds[i]}
                ref = {i: [node.pre for node in nodes]
                       for i, nodes in dom_walk().items()}
                assert got == ref, f"positional paths diverged: {name}"

            case = {}
            for kernel, fn in ((DOM_WALK, dom_walk),
                               (VECTORIZED, vectorized)):
                case[kernel] = r.measure(
                    scenario, file, kernel, n, fn,
                    label=f"{scenario}[{kernel}]", scale=scale,
                    size=label)
            timings[name] = case
        # End-to-end query pair: the DOM walk of the basic strategy vs
        # the bulk evaluator's columnar positional path.
        query = ('doc("xmark.xml")//open_auction'
                 '/child::bidder[position() mod 2 = 1]')
        scenario = f"positional.scale{scale}.{query_name}"
        if r.wanted(scenario):
            n = len(shredded)
            for kernel, strategy in ((DOM_WALK, "basic"),
                                     (VECTORIZED, "ll")):
                r.measure(scenario, file, kernel, n,
                          lambda strategy=strategy: db.query(
                              query, strategy=strategy),
                          label=f"{scenario}[{kernel}]", scale=scale,
                          size=label)
        headline = timings.get("child_mod", {})
        dom = headline.get(DOM_WALK, math.inf)
        vec = headline.get(VECTORIZED, math.inf)
        if math.isfinite(dom) and math.isfinite(vec) and vec > 0:
            summary = {
                "scale": scale, "size": label,
                "case": "child_mod",
                "dom_walk_seconds": round(dom, 6),
                "vectorized_seconds": round(vec, 6),
                "speedup": round(dom / vec, 2),
            }
    return summary


#: The plan-cache batch: parse-heavy queries (prolog function + nested
#: FLWOR/predicates) over a tiny document, so compilation dominates —
#: the repeated-small-query serving shape the plan cache targets.
_PLANCACHE_XML = "<r><a i='1'><b>t</b></a><a i='2'><c/></a></r>"
_PLANCACHE_PROLOG = (
    "declare function local:pick($s, $k) "
    "{ for $x in $s where $x/@i = $k return $x };\n")
_PLANCACHE_QUERIES = tuple(
    _PLANCACHE_PROLOG
    + f'for $a in local:pick(doc("t.xml")/r/child::a, "{k % 2 + 1}") '
      f"return count($a/descendant-or-self::node()"
      f"[position() mod {d} = 1])"
    for k in range(8) for d in (2, 3)
) + tuple(
    f'doc("t.xml")/r/child::a[@i = "{k % 2 + 1}"]'
    f"/child::*[1]/ancestor-or-self::node()[last()]"
    for k in range(8)
)


def scenario_plancache(r: Runner) -> dict | None:
    """The compiled-plan LRU on a repeated small-query batch (warm vs
    ``plan_cache_size=0``).  Returns the batch speedup."""
    file = "bench_plancache.py"
    batch_names = ("plancache.batch.warm", "plancache.batch.cold")
    summary = None
    if r.any_wanted(*batch_names):
        def batch(db):
            for query in _PLANCACHE_QUERIES:
                db.query(query, strategy="basic")

        timings = {}
        for tag, size in (("warm", 256), ("cold", 0)):
            db = Database(plan_cache_size=size)
            db.add_document("t.xml", _PLANCACHE_XML)
            batch(db)    # prime: the warm arm's one-time parse round
            timings[tag] = r.measure(
                f"plancache.batch.{tag}", file, None,
                len(_PLANCACHE_QUERIES), lambda db=db: batch(db),
                plan_cache_size=size)
        if math.isfinite(timings.get("warm", math.inf)) \
                and math.isfinite(timings.get("cold", math.inf)) \
                and timings["warm"] > 0:
            summary = {
                "queries": len(_PLANCACHE_QUERIES),
                "warm_seconds": round(timings["warm"], 6),
                "cold_seconds": round(timings["cold"], 6),
                "speedup": round(timings["cold"] / timings["warm"], 2),
            }
    return summary


def scenario_coldstart(r: Runner) -> dict | None:
    """Out-of-core cold start: serving a saved store (O(1) header read
    + zero-copy ``np.memmap`` column views) vs re-deriving the same
    state from XML text (parse + shred + region extraction — what
    every process had to pay before PR 8).  Both arms end ready for
    kernel joins: shredded columns plus the default region index; the
    mapped arm touches first/last column entries so the timing
    includes the initial page faults, not just the ``open`` syscall.
    Returns the speedup at the largest scale."""
    import shutil
    import tempfile

    from repro import storage
    from repro.core.region_index import RegionIndex
    from repro.xmldb.parser import parse_document
    from repro.xmldb.shred import shred
    from repro.xmldb.store import extract_regions

    file = "bench_coldstart.py"
    scales = (0.25,) if r.smoke else (0.5, 4.0, 16.0)
    summary = None
    for scale in scales:
        names = [f"coldstart.scale{scale}.{tag}"
                 for tag in ("open_mmap", "reshred")]
        if not r.any_wanted(*names):
            continue
        db, label = _xmark_build(scale)
        stored = db.store.get("xmark.xml")
        xml = stored.document.serialize()
        n = len(stored.shredded)
        tmp = tempfile.mkdtemp(prefix="repro-bench-coldstart-")
        try:
            path = str(Path(tmp) / "xmark.repro")
            storage.save_store(path, db)    # paid once, at publish time

            def open_mmap():
                reader = storage.StoreReader(path)
                sh = reader.shredded("xmark.xml")
                index = reader.region_index("xmark.xml")
                return (int(sh.pre[0]) + int(sh.size[-1])
                        + int(sh.name[0]) + len(index))

            def reshred():
                document = parse_document(xml, uri="xmark.xml")
                sh = shred(document)
                index = RegionIndex.build(extract_regions(document))
                return (int(sh.pre[0]) + int(sh.size[-1])
                        + int(sh.name[0]) + len(index))

            assert open_mmap() == reshred(), \
                "mapped cold start diverged from the rebuilt shred"
            timings = {}
            for tag, fn in (("open_mmap", open_mmap),
                            ("reshred", reshred)):
                timings[tag] = r.measure(
                    f"coldstart.scale{scale}.{tag}", file, None, n, fn,
                    label=f"coldstart.scale{scale}.{tag}",
                    scale=scale, size=label,
                    store_bytes=Path(path).stat().st_size)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        open_s = timings.get("open_mmap", math.inf)
        reshred_s = timings.get("reshred", math.inf)
        if math.isfinite(open_s) and math.isfinite(reshred_s) \
                and open_s > 0:
            summary = {
                "scale": scale, "size": label, "n": int(n),
                "open_mmap_seconds": round(open_s, 6),
                "reshred_seconds": round(reshred_s, 6),
                "speedup": round(reshred_s / open_s, 2),
            }
    return summary


def scenario_procpool(r: Runner) -> dict | None:
    """The process-pool executor on the bandwidth-bound axes: serial vs
    the thread pool vs real processes (``executor="process"``), all
    over one *store-backed* document so workers ship ``(path, slice)``
    descriptors and map the shared pages instead of pickling columns.
    The staircase arms run ``following``/``preceding`` (the axes whose
    result mass made thread fan-out a wash under the GIL — PR 4
    measured ``workers4`` at ~0.7x serial here); the StandOff arm is a
    wide select scan through the same store-backed region index.  Pool
    spawn cost is paid outside the timings (``warm_pool``), matching
    the long-lived-server deployment the executor targets.  Returns
    the process-vs-threads speedup on ``following`` at the largest
    scale."""
    import shutil
    import tempfile

    from repro import storage
    from repro.core.steps import Strategy, standoff_step
    from repro.exec import procpool
    from repro.staircase.kernels_vec import (
        resolve_staircase_pool,
        staircase_join,
    )

    file = "bench_procpool.py"
    scales = (0.25,) if r.smoke else (0.5, 4.0, 16.0)
    workers = 4
    shard_min_rows = 512
    variants = ("serial", "threads4", "procs4")
    axes = ("following", "preceding")
    summary = None
    for scale in scales:
        names = [f"procpool.scale{scale}.staircase_{axis}.{tag}"
                 for axis in axes for tag in variants]
        names += [f"procpool.scale{scale}.standoff_select_wide.{tag}"
                  for tag in variants]
        if not r.any_wanted(*names):
            continue
        db, label = _xmark_build(scale)
        tmp = tempfile.mkdtemp(prefix="repro-bench-procpool-")
        try:
            path = str(Path(tmp) / "xmark.repro")
            storage.save_store(path, db)
            reader = storage.StoreReader(path)
            shredded = reader.shredded("xmark.xml")
            index = reader.region_index("xmark.xml")
            procpool.warm_pool(workers)    # spawn cost paid up front

            desc = ("name", "bidder")
            pool = resolve_staircase_pool(shredded, desc)
            context_rows = [
                (it, int(pre)) for it, pre in enumerate(
                    shredded.elements_named("open_auction").tolist())]
            n = len(context_rows) + len(pool)

            def run_staircase(axis, tag):
                executor = "process" if tag == "procs4" else "thread"
                w = "serial" if tag == "serial" else workers
                return staircase_join(
                    axis, shredded, context_rows, pool,
                    kernel="vectorized", workers=w,
                    shard_min_rows=shard_min_rows,
                    executor=executor, candidate_desc=desc)

            for axis in axes:
                serial_ref = run_staircase(axis, "serial")
                for tag in ("threads4", "procs4"):
                    got = run_staircase(axis, tag)
                    assert np.array_equal(serial_ref.iters, got.iters) \
                        and np.array_equal(serial_ref.offsets,
                                           got.offsets) \
                        and np.array_equal(serial_ref.values,
                                           got.values), \
                        f"{tag} staircase diverged from serial ({axis})"
                timings = {}
                for tag in variants:
                    timings[tag] = r.measure(
                        f"procpool.scale{scale}.staircase_{axis}.{tag}",
                        file, VECTORIZED, n,
                        lambda axis=axis, tag=tag: run_staircase(
                            axis, tag),
                        label=f"procpool.scale{scale}."
                              f"staircase_{axis}[{tag}]",
                        scale=scale, size=label, workers=workers,
                        shard_min_rows=shard_min_rows,
                        executor="process" if tag == "procs4"
                        else "thread")
                if axis == "following" \
                        and math.isfinite(timings["threads4"]) \
                        and math.isfinite(timings["procs4"]) \
                        and timings["procs4"] > 0:
                    summary = {
                        "scale": scale, "size": label, "n": int(n),
                        "axis": axis,
                        "serial_seconds": round(timings["serial"], 6),
                        "threads4_seconds": round(
                            timings["threads4"], 6),
                        "procs4_seconds": round(timings["procs4"], 6),
                        "speedup_vs_threads": round(
                            timings["threads4"] / timings["procs4"], 2),
                    }

            ids = index.annotated_ids().tolist()
            per_iter = 20
            n_iters = max(4, len(ids) // per_iter)
            context, cursor = [], 0
            for it in range(n_iters):
                for _ in range(per_iter):
                    context.append((it, 0, ids[cursor % len(ids)]))
                    cursor += 17
            n_standoff = len(context) + len(index)

            def run_standoff(tag):
                executor = "process" if tag == "procs4" else "thread"
                w = "serial" if tag == "serial" else workers
                return standoff_step(
                    StandoffOp.SELECT_WIDE, context, {0: index},
                    strategy=Strategy.LOOP_LIFTED, kernel="vectorized",
                    workers=w, shard_min_rows=shard_min_rows,
                    executor=executor)

            serial_ref = run_standoff("serial")
            for tag in ("threads4", "procs4"):
                assert run_standoff(tag) == serial_ref, \
                    f"{tag} standoff diverged from serial"
            for tag in variants:
                r.measure(
                    f"procpool.scale{scale}.standoff_select_wide.{tag}",
                    file, VECTORIZED, n_standoff,
                    lambda tag=tag: run_standoff(tag),
                    label=f"procpool.scale{scale}."
                          f"standoff_select_wide[{tag}]",
                    scale=scale, size=label, workers=workers,
                    shard_min_rows=shard_min_rows,
                    executor="process" if tag == "procs4" else "thread")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return summary


def scenario_serving(r: Runner) -> dict | None:
    """Concurrent query serving through :class:`repro.serve.QueryServer`:
    a mixed workload — point lookups pipelined with full scans — runs
    serially (one ``db.query`` after another) and then concurrently
    through the server's admission control, over one shared XMark
    database.  The serial/concurrent pair times the whole batch; a
    separate instrumented pass records per-query wall latency
    (admission wait included) and reports throughput (qps) plus the
    p50/p99 latencies as their own scenario records, so trajectory
    diffs catch tail-latency regressions, not just batch time.
    Returns the qps/percentile headline at the largest scale."""
    import asyncio

    from repro.serve import QueryServer

    file = "bench_serving.py"
    scales = (0.25,) if r.smoke else (0.5, 2.0)
    concurrency = 8
    summary = None
    for scale in scales:
        names = [f"serving.scale{scale}.mixed.serial",
                 f"serving.scale{scale}.mixed.concurrent{concurrency}",
                 f"serving.scale{scale}.latency.p50",
                 f"serving.scale{scale}.latency.p99"]
        if not r.any_wanted(*names):
            continue
        db, label = _xmark_build(scale)
        point = ('doc("xmark.xml")//open_auction'
                 '[@id="open_auction7"]/bidder[1]')
        scan = ('for $a in doc("xmark.xml")//open_auction '
                'return count($a/descendant::bidder)')
        # 6:1 point:scan mix, repeated — the shape admission control
        # is for (scans must not starve the lookups between them)
        workload = ([point] * 6 + [scan]) * 4
        n = len(workload)
        db.query(point, strategy="ll")     # warm plans + shredding
        db.query(scan, strategy="ll")

        def run_serial():
            for q in workload:
                db.query(q, strategy="ll")

        def run_concurrent():
            async def go():
                async with QueryServer(
                        db=db, max_concurrency=concurrency,
                        default_timeout=0) as server:
                    await asyncio.gather(
                        *(server.query(q) for q in workload))
            asyncio.run(go())

        serial_s = r.measure(
            names[0], file, None, n, run_serial,
            label=f"serving.scale{scale}.mixed[serial]",
            scale=scale, size=label, queries=n)
        concurrent_s = r.measure(
            names[1], file, None, n, run_concurrent,
            label=f"serving.scale{scale}.mixed"
                  f"[concurrent{concurrency}]",
            scale=scale, size=label, queries=n,
            concurrency=concurrency)

        # one instrumented pass for per-query latency + throughput
        async def instrumented():
            async with QueryServer(
                    db=db, max_concurrency=concurrency,
                    default_timeout=0) as server:
                async def timed(q):
                    t0 = time.perf_counter()
                    await server.query(q)
                    return time.perf_counter() - t0
                t0 = time.perf_counter()
                latencies = await asyncio.gather(
                    *(timed(q) for q in workload))
                return latencies, time.perf_counter() - t0

        latencies, wall = asyncio.run(instrumented())
        latencies.sort()
        p50 = latencies[len(latencies) // 2]
        p99 = latencies[min(len(latencies) - 1,
                            int(len(latencies) * 0.99))]
        qps = n / wall if wall > 0 else math.inf
        for name, seconds in ((names[2], p50), (names[3], p99)):
            if not r.wanted(name):
                continue
            r.records.append({
                "scenario": name, "file": file, "kernel": None,
                "n": int(n), "seconds": round(seconds, 6),
                "repeats": 1, "dnf": False, "scale": scale,
                "size": label, "queries": n,
                "concurrency": concurrency,
                "qps": round(qps, 2),
            })
            print(f"  {name:58s} {seconds * 1e3:10.3f}ms", flush=True)
        if math.isfinite(serial_s) and math.isfinite(concurrent_s):
            summary = {
                "scale": scale, "size": label, "queries": n,
                "concurrency": concurrency,
                "qps": round(qps, 2),
                "p50_ms": round(p50 * 1e3, 3),
                "p99_ms": round(p99 * 1e3, 3),
                "serial_seconds": round(serial_s, 6),
                "concurrent_seconds": round(concurrent_s, 6),
            }
    return summary


SCENARIOS = [
    scenario_region_index,
    scenario_table_joins,
    scenario_active_structures,
    scenario_global_index,
    scenario_pushdown,
    scenario_figure6,
    scenario_udf_nocand,
]


# ----------------------------------------------------------------------
# trajectory comparison
# ----------------------------------------------------------------------

def missing_required_families(payload: dict,
                              prefixes: tuple[str, ...]) -> list[str]:
    """Hard failures for required scenario families absent (or entirely
    DNF) in a trajectory file — the gate that makes a run without e.g.
    the ``staircase_axes.*`` keys fail even against an older baseline."""
    problems: list[str] = []
    for prefix in prefixes:
        hits = [s for s in payload["scenarios"]
                if s["scenario"].startswith(prefix)]
        if not hits:
            problems.append(
                f"required scenario family missing: {prefix}*")
        elif all(s["dnf"] for s in hits):
            problems.append(
                f"required scenario family is all-DNF: {prefix}*")
    return problems


def compare_trajectories(new_payload: dict, baseline_payload: dict
                         ) -> tuple[list[str], list[str]]:
    """Diff two trajectory files on their ``scenario``/``kernel`` keys.

    :returns: ``(problems, report)`` — *problems* are hard failures
        (a baseline key missing from the new run, or a key that DNFed
        in the new run but finished in the baseline); *report* lines
        summarize per-key speedups/regressions for shared keys.
    """
    def by_key(payload):
        return {(s["scenario"], s["kernel"]): s
                for s in payload["scenarios"]}

    base = by_key(baseline_payload)
    new = by_key(new_payload)
    problems: list[str] = []
    report: list[str] = []
    if new_payload.get("smoke") != baseline_payload.get("smoke"):
        problems.append(
            "smoke/full mismatch: comparing a "
            f"smoke={new_payload.get('smoke')} run against a "
            f"smoke={baseline_payload.get('smoke')} baseline "
            "(workload scales differ; keys would not line up)")
        return problems, report
    for key in sorted(base.keys() - new.keys(),
                      key=lambda k: (k[0], str(k[1]))):
        problems.append(f"missing scenario: {key[0]} [{key[1]}]")
    regressions = improvements = 0
    for key in sorted(new.keys(), key=lambda k: (k[0], str(k[1]))):
        record = new[key]
        ref = base.get(key)
        if record["dnf"]:
            if ref is None:
                problems.append(
                    f"new DNF: {key[0]} [{key[1]}] (no baseline entry)")
            elif not ref["dnf"]:
                problems.append(
                    f"new DNF: {key[0]} [{key[1]}] "
                    f"(baseline finished in {ref['seconds']}s)")
            continue
        if ref is None or ref["dnf"] or not ref.get("seconds"):
            continue
        ratio = ref["seconds"] / record["seconds"] \
            if record["seconds"] else math.inf
        if ratio >= 1.05:
            improvements += 1
            tag = f"{ratio:.2f}x faster"
        elif ratio <= 0.8:
            regressions += 1
            tag = f"{1 / ratio:.2f}x SLOWER"
        else:
            continue
        report.append(f"  {key[0]} [{key[1]}]: "
                      f"{ref['seconds']}s -> {record['seconds']}s "
                      f"({tag})")
    report.append(f"compared {len(new.keys() & base.keys())} shared "
                  f"keys: {improvements} faster (>=1.05x), "
                  f"{regressions} slower (>=1.25x), "
                  f"{len(new.keys() - base.keys())} new")
    return problems, report


def resolve_baseline(arg: str | None, pr_label: str, smoke: bool
                     ) -> Path | None:
    """The baseline file to diff against, or ``None``.

    Explicit ``--baseline PATH`` wins (``none`` disables); otherwise a
    full run labelled ``PR<k>`` auto-detects the highest-numbered
    committed ``BENCH_PR<j>.json`` (``j < k``) at the repository root —
    trajectory points need not be consecutive (there is no PR6 file,
    so a PR7 run diffs against ``BENCH_PR5.json``).
    """
    if arg is not None:
        if arg.lower() == "none":
            return None
        return Path(arg)
    if smoke:
        return None
    match = re.fullmatch(r"PR(\d+)", pr_label)
    if match:
        for j in range(int(match.group(1)) - 1, 0, -1):
            candidate = _ROOT / f"BENCH_PR{j}.json"
            if candidate.exists():
                return candidate
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/run_all.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads (CI harness check)")
    parser.add_argument("--only", default=None, metavar="SUBSTR",
                        help="run only scenarios whose name contains "
                             "this substring")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repeats per scenario "
                             "(default: 3, smoke: 1)")
    parser.add_argument("--budget", type=float, default=None,
                        help="DNF budget seconds per scenario "
                             "(default: 120, smoke: 30)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output JSON path (default: BENCH_PR9.json "
                             "at the repo root; BENCH_SMOKE.json with "
                             "--smoke)")
    parser.add_argument("--pr", default=None, metavar="LABEL",
                        help="trajectory-point label stamped into the "
                             "JSON (default: derived from the output "
                             "file name, e.g. BENCH_PR2.json -> PR2)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="trajectory file to diff against (fails on "
                             "missing scenario/kernel keys or new DNFs; "
                             "default: auto-detect BENCH_PR<k-1>.json "
                             "for a PR<k> run; 'none' disables)")
    parser.add_argument("--compare", default=None, metavar="PATH",
                        help="skip running: load this trajectory JSON "
                             "and only perform the baseline comparison")
    parser.add_argument("--require", action="append", default=None,
                        metavar="PREFIX",
                        help="scenario-name prefix that must be present "
                             "(and not all-DNF) in the trajectory file; "
                             "repeatable (default: "
                             f"{', '.join(REQUIRED_SCENARIO_PREFIXES)}; "
                             "'none' disables)")
    args = parser.parse_args(argv)

    if args.require is None:
        required = REQUIRED_SCENARIO_PREFIXES
    else:
        required = tuple(p for p in args.require if p.lower() != "none")

    repeats = args.repeats if args.repeats is not None \
        else (1 if args.smoke else 3)
    budget = args.budget if args.budget is not None \
        else (30.0 if args.smoke else 120.0)

    if args.compare is not None:
        source = Path(args.compare)
        if not source.exists():
            print(f"trajectory file {source} does not exist")
            return 1
        payload = json.loads(source.read_text(encoding="utf-8"))
        pr_label = payload.get("pr", source.stem)
        smoke = bool(payload.get("smoke"))
        print(f"run_all: comparing {source} (no scenarios executed)")
    else:
        out = Path(args.out) if args.out else \
            _ROOT / ("BENCH_SMOKE.json" if args.smoke
                     else "BENCH_PR9.json")
        pr_label = args.pr if args.pr else (
            out.stem[len("BENCH_"):] if out.stem.startswith("BENCH_")
            else out.stem)
        smoke = args.smoke

        runner = Runner(smoke=args.smoke, only=args.only,
                        repeats=repeats, budget=budget)
        print(f"run_all: smoke={args.smoke} repeats={repeats} "
              f"budget={budget}s", flush=True)
        for scenario in SCENARIOS:
            scenario(runner)
        staircase_summary = scenario_staircase(runner)
        axes_summary = scenario_staircase_axes(runner)
        siblings_summary = scenario_staircase_siblings(runner)
        sharding_summary = scenario_sharding(runner)
        positional_summary = scenario_positional(runner)
        plancache_summary = scenario_plancache(runner)
        coldstart_summary = scenario_coldstart(runner)
        procpool_summary = scenario_procpool(runner)
        serving_summary = scenario_serving(runner)

        payload = {
            "schema": "repro-bench-trajectory/1",
            "pr": pr_label,
            "smoke": args.smoke,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "repeats": repeats,
            "budget_seconds": budget,
            "scenarios": runner.records,
            "summary": {
                "scenario_count": len(runner.records),
                "staircase_vectorized_headline": staircase_summary,
                "staircase_axes_headline": axes_summary,
                "staircase_siblings_headline": siblings_summary,
                "sharding_headline": sharding_summary,
                "positional_headline": positional_summary,
                "plancache_headline": plancache_summary,
                "coldstart_headline": coldstart_summary,
                "procpool_headline": procpool_summary,
                "serving_headline": serving_summary,
            },
        }
        out.write_text(json.dumps(payload, indent=2) + "\n",
                       encoding="utf-8")
        print(f"\nwrote {len(runner.records)} scenario records to {out}")
        if staircase_summary:
            print(f"staircase headline: vectorized "
                  f"{staircase_summary['speedup']}x "
                  f"vs ll-list at scale {staircase_summary['scale']} "
                  f"({staircase_summary['size']})")
        if axes_summary:
            print(f"staircase axes headline: vectorized descendant "
                  f"{axes_summary['speedup']}x vs ll-dict at scale "
                  f"{axes_summary['scale']} ({axes_summary['size']})")
        if siblings_summary:
            print(f"staircase siblings headline: vectorized "
                  f"following-sibling {siblings_summary['speedup']}x "
                  f"vs the DOM walk at scale "
                  f"{siblings_summary['scale']} "
                  f"({siblings_summary['size']})")
        if sharding_summary:
            print(f"sharding headline: standoff select-wide workers=4 "
                  f"{sharding_summary['speedup']}x vs serial at scale "
                  f"{sharding_summary['scale']}")
        if positional_summary:
            print(f"positional headline: vectorized "
                  f"{positional_summary['case']} "
                  f"{positional_summary['speedup']}x vs the DOM walk "
                  f"at scale {positional_summary['scale']} "
                  f"({positional_summary['size']})")
        if plancache_summary:
            print(f"plancache headline: warm plan cache "
                  f"{plancache_summary['speedup']}x vs cold parsing "
                  f"over {plancache_summary['queries']} queries")
        if coldstart_summary:
            print(f"coldstart headline: mmap open "
                  f"{coldstart_summary['speedup']}x vs re-shred at "
                  f"scale {coldstart_summary['scale']} "
                  f"({coldstart_summary['size']})")
        if procpool_summary:
            print(f"procpool headline: process executor "
                  f"{procpool_summary['speedup_vs_threads']}x vs "
                  f"workers=4 threads on {procpool_summary['axis']} "
                  f"at scale {procpool_summary['scale']} "
                  f"({procpool_summary['size']})")
        if serving_summary:
            print(f"serving headline: {serving_summary['qps']} qps, "
                  f"p50 {serving_summary['p50_ms']}ms / p99 "
                  f"{serving_summary['p99_ms']}ms over "
                  f"{serving_summary['queries']} mixed queries at "
                  f"concurrency {serving_summary['concurrency']}, "
                  f"scale {serving_summary['scale']} "
                  f"({serving_summary['size']})")

    gate_problems: list[str] = []
    gate_ran = required and not smoke \
        and (args.compare is not None or args.only is None)
    if gate_ran:
        gate_problems = missing_required_families(payload, required)

    baseline_path = resolve_baseline(args.baseline, pr_label, smoke)
    if baseline_path is None:
        if gate_problems:
            for problem in gate_problems:
                print(f"FAIL: {problem}")
            return 1
        if args.compare is not None:
            print("no baseline to compare against "
                  "(pass --baseline PATH)")
            return 1
        return 0
    if not baseline_path.exists():
        print(f"baseline {baseline_path} does not exist")
        return 1
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    problems, report = compare_trajectories(payload, baseline)
    problems = gate_problems + problems
    print(f"\ntrajectory diff vs {baseline_path.name} "
          f"({baseline.get('pr', '?')}):")
    for line in report:
        print(line)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    print("trajectory check OK: no missing scenarios, no new DNFs"
          + (", required families present" if gate_ran else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
