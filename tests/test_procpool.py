"""The process-pool executor: real processes, identical answers.

The executor knob may only change *where* shards run, never what they
compute.  These tests pin:

* that the pool really is other processes (worker PIDs differ);
* that the store-backed staircase dispatch actually routes through
  :mod:`repro.exec.procpool` — and returns arrays byte-identical to
  the serial call;
* engine-level answer parity for process vs thread vs serial across
  backends, including the graceful thread fallback when a document has
  no store behind it (memory backend, constructed fragments).
"""

import os

import numpy as np
import pytest

from repro import storage
from repro.exec import procpool, sharding
from repro.staircase.kernels_vec import (
    resolve_staircase_pool,
    staircase_join,
)
from repro.xquery.engine import Database

WORKERS = 2

XML = "<doc>" + "".join(
    f"<s id='{i}' start='{i * 10}' end='{i * 10 + 9}'>"
    + "".join(f"<w start='{i * 10 + j}' end='{i * 10 + j}'>t{j}</w>"
              for j in range(6))
    + "</s>" for i in range(120)) + "</doc>"

QUERIES = (
    "for $s in doc('d.xml')//s return count($s/following::w)",
    "for $s in doc('d.xml')//s return count($s/preceding::w)",
    "doc('d.xml')//s[@id='7']/descendant::w",
    "for $w in doc('d.xml')//w[@start < 40] "
    "return standoff:select-wide(doc('d.xml')//s, $w)",
    "for $s in doc('d.xml')//s[position() < 20] "
    "return count($s/reject-narrow::w)",
)


def build(backend):
    db = Database(storage_backend=backend)
    db.add_document("d.xml", XML)
    return db


def test_workers_are_separate_processes():
    pids = procpool.worker_pids(WORKERS)
    assert pids
    assert os.getpid() not in pids


def test_store_backed_staircase_roundtrip(tmp_path):
    """The direct procpool staircase path must match the serial call
    array-for-array."""
    path = str(tmp_path / "d.repro")
    storage.save_store(path, build("memory"))
    sh = storage.StoreReader(path).shredded("d.xml")
    assert sh.store_ref is not None
    context = [(it, pre) for it, pre in
               enumerate(sh.all_element_pres().tolist()[:80])]
    for axis, desc in (("following", ("name", "w")),
                       ("preceding", ("name", "w")),
                       ("descendant", ("non-attr",)),
                       ("ancestor", ("all-elements",)),
                       ("child", ("all-elements",)),
                       ("following-sibling", ("name", "s")),
                       ("preceding-sibling", ("all",))):
        pool = resolve_staircase_pool(sh, desc)
        serial = staircase_join(axis, sh, context, pool,
                                kernel="vectorized", workers="serial")
        via_procs = staircase_join(axis, sh, context, pool,
                                   kernel="vectorized", workers=WORKERS,
                                   shard_min_rows=1, executor="process",
                                   candidate_desc=desc)
        assert np.array_equal(serial.iters, via_procs.iters), axis
        assert np.array_equal(serial.offsets, via_procs.offsets), axis
        assert np.array_equal(serial.values, via_procs.values), axis


def test_process_dispatch_actually_engages(monkeypatch):
    """Under the mmap backend the staircase fan-out must really route
    through the process pool (not silently fall back to threads)."""
    calls = []
    real = procpool.run_process_shards

    def spy(worker, jobs, workers):
        calls.append((worker, jobs[0][1]))
        return real(worker, jobs, workers)

    monkeypatch.setattr(procpool, "run_process_shards", spy)
    db = build("mmap")
    db.query("for $s in doc('d.xml')//s return count($s/following::w)",
             strategy="ll", kernel="vectorized",
             workers=WORKERS, shard_min_rows=1, executor="process")
    assert (procpool.staircase_shard, "following") in calls


def test_one_iteration_context_never_touches_a_pool(tmp_path, monkeypatch):
    """A one-shard plan runs inline under either executor: a context
    of one iteration — however many rows — is never shipped to a
    worker (process or thread) and back."""

    def boom(*_args, **_kwargs):  # pragma: no cover - must not run
        raise AssertionError("one-shard plan reached a pool")

    monkeypatch.setattr(procpool, "run_process_shards", boom)
    monkeypatch.setattr(procpool, "_proc_pool", boom)
    monkeypatch.setattr(sharding, "_pool", boom)
    path = str(tmp_path / "d.repro")
    storage.save_store(path, build("memory"))
    sh = storage.StoreReader(path).shredded("d.xml")
    desc = ("name", "w")
    pool = resolve_staircase_pool(sh, desc)
    context = [(0, pre) for pre in sh.all_element_pres().tolist()[:80]]
    for axis in ("following", "descendant", "ancestor"):
        serial = staircase_join(axis, sh, context, pool,
                                kernel="vectorized", workers="serial")
        for executor in ("thread", "process"):
            inline = staircase_join(axis, sh, context, pool,
                                    kernel="vectorized", workers=WORKERS,
                                    shard_min_rows=1, executor=executor,
                                    candidate_desc=desc)
            assert np.array_equal(serial.iters, inline.iters)
            assert np.array_equal(serial.offsets, inline.offsets)
            assert np.array_equal(serial.values, inline.values)


def test_memory_backend_falls_back_to_threads(monkeypatch):
    """No store behind the document: the process executor must degrade
    to the thread path — same answers, no crash, no process dispatch."""

    def boom(*_args, **_kwargs):  # pragma: no cover - must not run
        raise AssertionError("process dispatch without a store")

    monkeypatch.setattr(procpool, "run_process_shards", boom)
    db = build("memory")
    for query in QUERIES:
        want = db.query(query, strategy="ll",
                        workers="serial").serialize()
        got = db.query(query, strategy="ll", workers=WORKERS,
                       shard_min_rows=1,
                       executor="process").serialize()
        assert got == want, query


@pytest.mark.parametrize("backend", ["memory", "mmap"])
def test_engine_parity_across_executors(backend):
    db = build(backend)
    reference = build("memory")
    for query in QUERIES:
        want = reference.query(query, workers="serial").serialize()
        for executor in ("thread", "process"):
            got = db.query(query, strategy="ll", workers=WORKERS,
                           shard_min_rows=1,
                           executor=executor).serialize()
            assert got == want, (backend, executor, query)


def test_standoff_process_path(tmp_path):
    """StandOff joins over an opened store: the region indexes carry
    store refs, so the process path engages end to end."""
    path = str(tmp_path / "d.repro")
    storage.save_store(path, build("memory"))
    db = storage.open_store(path)
    reference = build("memory")
    query = ("for $w in doc('d.xml')//w "
             "return standoff:select-wide(doc('d.xml')//s, $w)")
    want = reference.query(query, workers="serial").serialize()
    got = db.query(query, strategy="ll", workers=WORKERS,
                   shard_min_rows=1, executor="process").serialize()
    assert got == want


def test_shared_memory_transport_roundtrip(tmp_path, monkeypatch):
    """Forcing every result through the shared-memory transport (the
    large-result path) must not change a single array element, and the
    segments must be unlinked once the merge is done."""
    monkeypatch.setattr(procpool, "SHM_MIN_BYTES", 0)
    path = str(tmp_path / "d.repro")
    storage.save_store(path, build("memory"))
    sh = storage.StoreReader(path).shredded("d.xml")
    context = [(it, pre) for it, pre in
               enumerate(sh.all_element_pres().tolist()[:80])]
    desc = ("name", "w")
    pool = resolve_staircase_pool(sh, desc)
    serial = staircase_join("following", sh, context, pool,
                            kernel="vectorized", workers="serial")
    via_shm = staircase_join("following", sh, context, pool,
                             kernel="vectorized", workers=WORKERS,
                             shard_min_rows=1, executor="process",
                             candidate_desc=desc)
    assert np.array_equal(serial.iters, via_shm.iters)
    assert np.array_equal(serial.offsets, via_shm.offsets)
    assert np.array_equal(serial.values, via_shm.values)
    leftovers = [name for name in os.listdir("/dev/shm")
                 if name.startswith("psm_")] \
        if os.path.isdir("/dev/shm") else []
    assert not leftovers, leftovers


def test_executor_validation():
    db = build("memory")
    with pytest.raises(ValueError, match="executor"):
        db.query("1 + 1", executor="carrier-pigeon")


def test_warm_pool():
    procpool.warm_pool(WORKERS)
    assert procpool.worker_pids(WORKERS)


def test_broken_pool_evicted_and_rebuilt(tmp_path):
    """A worker dying mid-job breaks the whole pool; the next dispatch
    must evict the carcass from ``_PROC_POOLS``, rebuild, and retry —
    not keep raising ``BrokenProcessPool`` forever."""
    from concurrent.futures.process import BrokenProcessPool

    procpool.warm_pool(WORKERS)
    pool = procpool._proc_pool(WORKERS)
    with pytest.raises(BrokenProcessPool):
        pool.submit(os._exit, 13).result()

    # the cached pool is now broken; both the pool utilities and a real
    # store-backed staircase dispatch must transparently recover
    pids = procpool.worker_pids(WORKERS)
    assert pids and os.getpid() not in pids

    path = str(tmp_path / "d.repro")
    storage.save_store(path, build("memory"))
    db = storage.open_store(path)
    reference = build("memory")
    query = QUERIES[0]
    want = reference.query(query, workers="serial").serialize()

    broken = procpool._proc_pool(WORKERS)
    with pytest.raises(BrokenProcessPool):
        broken.submit(os._exit, 13).result()
    got = db.query(query, strategy="ll", workers=WORKERS,
                   shard_min_rows=1, executor="process").serialize()
    assert got == want


def test_shm_unlinked_when_merge_fails(tmp_path, monkeypatch):
    """A failure between a worker publishing its shared-memory payload
    and the caller consuming it must not leak the segment: the error
    path drains the remaining futures and unlinks every payload."""
    monkeypatch.setattr(procpool, "SHM_MIN_BYTES", 0)
    path = str(tmp_path / "d.repro")
    storage.save_store(path, build("memory"))
    sh = storage.StoreReader(path).shredded("d.xml")
    context = [(it, pre) for it, pre in
               enumerate(sh.all_element_pres().tolist()[:80])]
    desc = ("name", "w")
    pool = resolve_staircase_pool(sh, desc)

    real = procpool._unpack_columnar
    consumed = []

    def unpack_once_then_fail(payload, handles):
        if consumed:
            raise RuntimeError("merge failure")
        consumed.append(1)
        return real(payload, handles)

    monkeypatch.setattr(procpool, "_unpack_columnar",
                        unpack_once_then_fail)
    with pytest.raises(RuntimeError, match="merge failure"):
        staircase_join("following", sh, context, pool,
                       kernel="vectorized", workers=WORKERS,
                       shard_min_rows=1, executor="process",
                       candidate_desc=desc)
    assert consumed, "expected the first shard to be consumed"
    leftovers = [name for name in os.listdir("/dev/shm")
                 if name.startswith("psm_")] \
        if os.path.isdir("/dev/shm") else []
    assert not leftovers, leftovers
