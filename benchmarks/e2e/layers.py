"""Per-layer probes of the traced pass.

Every function times calls into one layer's public functions from the
outside, records them as spans, and returns ``{metric name: value}``.
A workload's ``layers()`` runs the probes of the layers its ops reach;
the runner reports 0 for the metrics of layers a workload bypasses.
Times are medians over ``REPS`` calls unless stated otherwise.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time

from repro.config import DEFAULT_KERNEL
from repro.core.kernels_vec import estimate_probe_pairs, kernel_join
from repro.core.mergejoin_ll import IterContext
from repro.core.naive import StandoffOp
from repro.serve import QueryServer
from repro.staircase.kernels_vec import staircase_join
from repro.storage import StoreReader, open_store
from repro.xmark import generate_xmark, standoffize
from repro.xmldb.parser import parse_document
from repro.xmldb.shred import shred
from repro.xquery.parser import parse

REPS = 3

#: Engine options every query of the benchmark runs under (pinned, not
#: inherited from ``REPRO_*``).
LL = {"strategy": "ll", "workers": "serial", "executor": "thread"}
BASIC = {"strategy": "basic", "workers": "serial", "executor": "thread"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def timed(rec, name: str, call, *, reps: int = REPS,
          template: str | None = None):
    """Median seconds of *reps* calls of *call* (each one a span) and
    the last call's result."""
    seconds = []
    result = None
    for _ in range(reps):
        with rec.span(name, template=template):
            start = time.perf_counter()
            result = call()
            seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), result


# -- load path ------------------------------------------------------------

def build_layers(rec, seed: int, scale: float, *, standoff: bool) -> dict:
    """generate -> parse -> shred (-> standoffize), each on its own."""
    generate_s, xml = timed(rec, "xmark.generate",
                            lambda: generate_xmark(scale, seed=seed))
    parse_s, document = timed(rec, "xmldb.parse",
                              lambda: parse_document(xml, uri="probe.xml"))
    shred_s, shredded = timed(rec, "xmldb.shred", lambda: shred(document))
    out = {"xmark.generate_s": generate_s, "xmldb.parse_s": parse_s,
           "xmldb.shred_s": shred_s, "xmldb.nodes": len(shredded)}
    if standoff:
        out["xmark.standoffize_s"], _bundle = timed(
            rec, "xmark.standoffize", lambda: standoffize(document))
    return out


def touch_layers(rec, db, uri: str) -> dict:
    """What a write leaves for the next read: ``store.touch`` drops the
    shred, the first ``.shredded`` rebuilds it."""
    def rebuild():
        return db.store.touch(uri).shredded

    seconds, _ = timed(rec, "xmldb.touch_rebuild", rebuild)
    return {"xmldb.touch_rebuild_ms": seconds * 1e3}


def region_index_layers(rec, db, uri: str) -> dict:
    stored = db.document(uri)
    seconds = []
    for _ in range(REPS):
        stored.invalidate()
        _ = stored.shredded
        with rec.span("core.region_index_build"):
            start = time.perf_counter()
            stored.region_index()
            seconds.append(time.perf_counter() - start)
    return {"core.region_index_build_ms": statistics.median(seconds) * 1e3}


# -- query path -----------------------------------------------------------

def span_layers(rec) -> dict:
    """Metrics read off the traced loop's own spans."""
    out = {}
    evals = rec.durations("xquery.eval")
    if evals:
        out["xquery.eval_ms"] = 1e3 * statistics.geometric_mean(
            statistics.median(v) for v in evals.values())
    serial = rec.durations("xmldb.serialize")
    if serial:
        out["xmldb.serialize_ms"] = 1e3 * statistics.fmean(
            statistics.median(v) for v in serial.values())
    return out


def template_layers(rec, db, templates) -> dict:
    """Compile cost, result size and the ll : basic ratio of each
    template's text against a warm *db*."""
    cold, warm, ratios, items = [], [], [], 0
    for template in templates:
        text = template.text
        seconds, _ = timed(rec, "xquery.compile_cold", lambda: parse(text),
                           template=template.name)
        cold.append(seconds)
        db.compile(text)
        seconds, _ = timed(rec, "xquery.compile_warm",
                           lambda: db.compile(text), template=template.name)
        warm.append(seconds)
        ll_s, result = timed(rec, "xquery.eval_ll",
                             lambda: db.query(text, **LL),
                             template=template.name)
        basic_s, _ = timed(rec, "xquery.eval_basic",
                           lambda: db.query(text, **BASIC),
                           template=template.name)
        items += len(result)
        ratios.append(ll_s / basic_s)
    return {"xquery.compile_cold_ms": 1e3 * statistics.fmean(cold),
            "xquery.compile_warm_ms": 1e3 * statistics.fmean(warm),
            "xquery.items_out": items,
            "xquery.ll_vs_basic_ratio": statistics.geometric_mean(ratios)}


def _result_rows(result) -> int:
    return sum(len(result[iteration]) for iteration in result)


def _staircase_step(rec, template, step, shredded, nodes, pool, totals):
    """One tree-axis step: every context node its own iteration."""
    rows = [(i, node.pre) for i, node in enumerate(nodes)]
    seconds, result = timed(
        rec, "staircase.kernel",
        lambda: staircase_join(step.axis, shredded, rows, pool,
                               workers="serial"),
        template=template.name)
    decode_s, rows_out = timed(rec, "relational.columnar_decode",
                               lambda: _result_rows(result),
                               template=template.name)
    totals["staircase.kernel_ms"] += seconds * 1e3
    totals["relational.columnar_decode_ms"] += decode_s * 1e3
    totals["staircase.context_rows"] += len(rows)
    totals["staircase.result_rows"] += rows_out


def _standoff_step(rec, template, step, index, nodes, pool, totals):
    """One StandOff step: the context's regions fetched and sorted
    outside, then the join alone (as ``core.steps`` runs it)."""
    op = StandoffOp(step.axis)
    fetched = index.fetch(sorted({node.pre for node in nodes}))
    regions: dict[int, list] = {}
    for start, end, nid in zip(fetched.starts.tolist(),
                               fetched.ends.tolist(),
                               fetched.ids.tolist()):
        regions.setdefault(nid, []).append((start, end))
    context = IterContext.from_rows(
        (i, node.pre, start, end)
        for i, node in enumerate(nodes)
        for start, end in regions.get(node.pre, ()))
    candidates = index.candidates(pool)
    seconds, _ = timed(
        rec, "core.kernel",
        lambda: kernel_join(op, context, candidates, kernel=DEFAULT_KERNEL),
        template=template.name)
    totals["core.kernel_ms"] += seconds * 1e3
    totals["core.probe_pairs"] += estimate_probe_pairs(
        context, candidates,
        wide=op in (StandoffOp.SELECT_WIDE, StandoffOp.REJECT_WIDE))


def kernel_layers(rec, db, templates, eval_ms: dict) -> dict:
    """The join kernels on inputs built outside the timed call, summed
    over the dominant step(s) each template declares; the shares are of
    the summed per-template ``xquery.eval`` medians (*eval_ms*)."""
    totals = dict.fromkeys(
        ("staircase.kernel_ms", "staircase.context_rows",
         "staircase.result_rows", "relational.columnar_decode_ms",
         "core.kernel_ms", "core.probe_pairs"), 0)
    kinds = set()
    contexts: dict[str, list] = {}      # templates share context queries
    for template in templates:
        for step in template.steps:
            stored = db.document(step.uri)
            shredded = stored.shredded
            if step.context not in contexts:
                contexts[step.context] = db.query(step.context, **LL)
            nodes = contexts[step.context]
            pool = (shredded.non_attribute_pres() if step.name is None
                    else shredded.elements_named(step.name))
            kinds.add(step.kind)
            if step.kind == "staircase":
                _staircase_step(rec, template, step, shredded, nodes, pool,
                                totals)
            else:
                _standoff_step(rec, template, step, stored.region_index(),
                               nodes, pool, totals)
    total = sum(eval_ms[t.name] for t in templates if t.steps)
    if "staircase" in kinds:
        totals["staircase.kernel_share"] = (
            totals["staircase.kernel_ms"] / total)
    if "standoff" in kinds:
        totals["core.kernel_share"] = totals["core.kernel_ms"] / total
    return totals


# -- storage ----------------------------------------------------------------

def storage_layers(rec, path: str, input_bytes: int, *,
                   plain_uri: str, region_uri: str | None) -> dict:
    """Open cost of a saved store and of each lazy structure behind it;
    the save itself is set-up's ``storage.save`` span."""
    def first(call):
        # every rep gets a fresh reader: these are first-touch costs
        return lambda: call(StoreReader(path))

    open_s, _ = timed(rec, "storage.open", lambda: open_store(path))
    shred_s, _ = timed(rec, "storage.first_shred",
                       first(lambda r: r.shredded(plain_uri)))
    dom_s, _ = timed(rec, "storage.dom_build",
                     first(lambda r: r.document(plain_uri)))
    verify_s, reader = timed(rec, "storage.verify",
                             first(lambda r: (r.verify(), r)[1]))
    [save_s] = rec.durations("storage.save")[None]
    out = {"storage.save_s": save_s,
           "storage.open_ms": open_s * 1e3,
           "storage.first_shred_ms": shred_s * 1e3,
           "storage.dom_build_ms": dom_s * 1e3,
           "storage.verify_ms": verify_s * 1e3,
           "storage.bytes_per_input_byte": reader.file_size / input_bytes}
    if region_uri is not None:
        index_s, _ = timed(rec, "storage.region_index",
                           first(lambda r: r.region_index(region_uri)))
        out["storage.region_index_ms"] = index_s * 1e3
    return out


# -- executors and serving -----------------------------------------------

def exec_layers(rec, db, uri: str) -> dict:
    """The document-wide descendant step, fanned out over ``nproc``
    thread / process shards, against the serial call (base: serial)."""
    shredded = db.document(uri).shredded
    pool = shredded.non_attribute_pres()
    rows = [(0, 0)]

    def join(**options):
        return lambda: staircase_join(
            "descendant", shredded, rows, pool,
            candidate_desc=("non-attr",), **options)

    serial_s, _ = timed(rec, "exec.serial", join(workers="serial"))
    thread_s, _ = timed(rec, "exec.thread_fanout",
                        join(workers=nproc(), executor="thread"))
    join(workers=nproc(), executor="process")()      # spawn the pool
    process_s, _ = timed(rec, "exec.process_fanout",
                         join(workers=nproc(), executor="process"))
    return {"exec.thread_fanout_ratio": thread_s / serial_s,
            "exec.process_fanout_ratio": process_s / serial_s}


def stop_processes() -> None:
    """Stop and wait for every process the probes started: the process
    executor's workers, then ``multiprocessing``'s resource tracker
    (which the shared-memory results start, and which otherwise ends
    only once this process is gone - an orphan the run leaves behind).
    The tracker exits when the last holder of its pipe does, so the
    workers go first."""
    import multiprocessing
    from multiprocessing import resource_tracker

    from repro.exec import procpool

    procpool._shutdown_pools()      # the program's own exit hook, early
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def dispatch_layers(rec, db) -> dict:
    """What admission + the dispatch thread hop add to the cheapest
    query: embedded ``server.query("1")`` minus ``db.query("1")``."""
    reps = 50

    def direct():
        return db.query("1", **LL).serialize()

    async def served() -> float:
        async with QueryServer(db=db, default_timeout=0, **LL) as server:
            await server.query("1")
            seconds = []
            for _ in range(reps):
                with rec.span("serve.dispatch"):
                    start = time.perf_counter()
                    await server.query("1")
                    seconds.append(time.perf_counter() - start)
            return statistics.median(seconds)

    direct_s, _ = timed(rec, "serve.direct", direct, reps=reps)
    return {"serve.dispatch_overhead_ms":
            (asyncio.run(served()) - direct_s) * 1e3}
