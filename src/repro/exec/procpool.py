"""Process-pool shard execution over memory-mapped stores.

The thread-pool fan-out (:mod:`repro.exec.sharding`) shares one address
space: on the bandwidth-bound axes (``following`` / ``preceding`` and
wide StandOff scans) threads contend for the same last-level cache and
memory controllers, and the GIL handoffs around each NumPy call add up.
This module runs the *same shard plan* — the context cut between
iterations by :func:`~repro.exec.sharding.partition_by_iteration`,
every shard against the whole candidate side, results merged by
:func:`~repro.exec.sharding.concat_iteration_blocks` — on worker
**processes** instead.  It never plans: callers hand it the shards of
a plan that actually fans out (a one-shard plan runs inline in the
caller and never reaches a pool).

What makes that cheap is the store file (:mod:`repro.storage`): a
worker re-opens the memory-mapped store by path, so the OS shares the
column pages between every participant and the job descriptors shipped
over the pipe are tiny — ``(store path, uri)`` references plus each
shard's slice of the (deduplicated) context columns; never the
candidate arrays themselves.  Workers resolve their inputs from the
store, not from pickles:

* the candidate pool is re-derived from the step's **candidate
  descriptor** (``("name", tag)``, ``("kind", k)``, …) through
  :func:`repro.staircase.kernels_vec.resolve_staircase_pool`, the
  function the parent resolved it with;
* a StandOff job re-derives ``index.candidates(wanted)`` against the
  worker's mapped region index.

Pools use the ``spawn`` start method (fork would duplicate the parent's
arbitrarily large heap and is unsafe with threads) and are cached per
worker count for the life of the process — spawn start-up is paid once,
not per join.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory

import numpy as np

from repro.exec import lockcheck
from repro.exec.cancel import current_token, wait_cancellable
from repro.exec.sharding import concat_iteration_blocks
from repro.relational.columnar import ColumnarResult

#: (store path, document uri) — how jobs reference mapped columns.
StoreRef = tuple[str, str]

#: Below this many result bytes a shard result is pickled through the
#: pool's result pipe as-is; at or above it the worker parks the CSR
#: columns in a POSIX shared-memory segment and ships only its name.
#: The bandwidth-bound axes return orders of magnitude more data than
#: they read — pushing those columns through the pickle pipe (two
#: copies plus 64 KiB-chunked syscalls) costs more than the join
#: itself, while an shm segment is written once by the worker and
#: mapped zero-copy by the parent.
SHM_MIN_BYTES = 1 << 20

_PROC_POOLS: dict[int, ProcessPoolExecutor] = {}
_PROC_POOLS_LOCK = lockcheck.new_lock("procpool._PROC_POOLS_LOCK")


def _proc_pool(workers: int) -> ProcessPoolExecutor:
    with _PROC_POOLS_LOCK:
        pool = _PROC_POOLS.get(workers)
        if pool is None:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn"))
            _PROC_POOLS[workers] = pool
        return pool


def _evict_pool(workers: int, pool: ProcessPoolExecutor) -> None:
    """Drop *pool* from the cache (if still cached) and tear it down."""
    with _PROC_POOLS_LOCK:
        if _PROC_POOLS.get(workers) is pool:
            del _PROC_POOLS[workers]
    pool.shutdown(wait=False, cancel_futures=True)


def _run_with_retry(workers: int, attempt):
    """Run *attempt(pool)* on the cached pool, surviving pool death.

    A :class:`BrokenProcessPool` (a worker OOM-killed or segfaulted
    mid-job) permanently poisons a ``ProcessPoolExecutor`` — every
    later submission fails instantly.  Because the pools here are
    cached for the life of the process, one dead worker used to turn
    *every* subsequent ``executor="process"`` query into an error.
    This wrapper evicts the broken pool from the cache, builds a fresh
    one, and retries the whole job exactly once; a second breakage
    propagates (something is systematically killing workers, and
    retry loops would hide it).
    """
    pool = _proc_pool(workers)
    try:
        return attempt(pool)
    except BrokenProcessPool:
        _evict_pool(workers, pool)
        fresh = _proc_pool(workers)
        try:
            return attempt(fresh)
        except BrokenProcessPool:
            _evict_pool(workers, fresh)
            raise


def _shutdown_pools() -> None:
    with _PROC_POOLS_LOCK:
        pools = list(_PROC_POOLS.values())
        _PROC_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(_shutdown_pools)


def warm_pool(workers: int) -> None:
    """Start the pool's workers and import the engine in each.

    Benchmarks call this outside the timed section so process-pool
    timings measure the joins, not spawn + import cost (which real
    deployments amortize over the pool's lifetime anyway); the serving
    layer calls it at startup for the same reason.
    """

    def attempt(pool: ProcessPoolExecutor) -> None:
        futures = [pool.submit(_import_engine) for _ in range(workers)]
        for future in futures:
            future.result()

    _run_with_retry(workers, attempt)


def warm_store(workers: int, path: str, uris: tuple[str, ...]) -> None:
    """Pre-open a published store in the pool's worker processes.

    The serving pre-fork: every worker maps the store file and builds
    its per-uri facades *before* the first query arrives, so the first
    process-executor query pays a shard job, not an open + validate.
    (Submitting ``workers`` blocking jobs spreads them across the idle
    workers the same way :func:`warm_pool` does.)
    """

    def attempt(pool: ProcessPoolExecutor) -> None:
        futures = [pool.submit(_touch_store, path, uris)
                   for _ in range(workers)]
        for future in futures:
            future.result()

    _run_with_retry(workers, attempt)


def worker_pids(workers: int) -> set[int]:
    """Distinct PIDs answering in the pool (test/diagnostic hook)."""

    def attempt(pool: ProcessPoolExecutor) -> set[int]:
        futures = [pool.submit(os.getpid) for _ in range(workers * 2)]
        return {future.result() for future in futures}

    return _run_with_retry(workers, attempt)


# ----------------------------------------------------------------------
# result transport
# ----------------------------------------------------------------------

def _pack_columnar(result: ColumnarResult) -> tuple:
    """Make a worker-side :class:`ColumnarResult` cheap to return.

    Small results ride the ordinary pickle pipe.  Large ones are
    copied once into a shared-memory segment; the payload then carries
    only the segment name plus per-array ``(dtype, shape, offset)``
    descriptors.  The segment stays linked until the parent consumed
    it (:func:`_unpack_columnar` attaches, the caller unlinks via the
    returned handles) — and if the parent dies first, the
    ``multiprocessing`` resource tracker reaps the segment at exit.
    """
    arrays = [np.ascontiguousarray(result.iters),
              np.ascontiguousarray(result.offsets),
              np.ascontiguousarray(result.values)]
    total = sum(a.nbytes for a in arrays)
    if total < SHM_MIN_BYTES:
        return "col", tuple(arrays)
    segment = shared_memory.SharedMemory(create=True, size=total)
    try:
        metas = []
        offset = 0
        for a in arrays:
            view = np.ndarray(a.shape, a.dtype, buffer=segment.buf,
                              offset=offset)
            view[...] = a
            metas.append((a.dtype.str, a.shape, offset))
            offset += a.nbytes
    except BaseException:
        # An unwind (cancel, timeout, OOM) between create and return
        # would orphan the segment in /dev/shm for the worker's life —
        # the parent never learns its name, so nobody else can unlink.
        segment.close()
        segment.unlink()
        raise
    name = segment.name
    segment.close()
    return "col-shm", name, metas


def _unpack_columnar(payload: tuple, handles: list) -> ColumnarResult:
    """Rehydrate a :func:`_pack_columnar` payload in the parent.

    Shared-memory payloads come back as zero-copy views; the attached
    segment is appended to *handles* and stays valid until
    :func:`_release_segments` — callers release only after the views
    have been merged (or copied) into parent-owned arrays.
    """
    if payload[0] == "col":
        return ColumnarResult(*payload[1])
    _tag, name, metas = payload
    segment = shared_memory.SharedMemory(name=name)
    handles.append(segment)
    return ColumnarResult(*(
        np.ndarray(shape, np.dtype(dtype), buffer=segment.buf,
                   offset=offset)
        for dtype, shape, offset in metas))


def _release_segments(handles: list) -> None:
    for segment in handles:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass


def _unlink_payload(payload) -> None:
    """Unlink the segment of a completed-but-never-consumed payload.

    The error-path counterpart of :func:`_unpack_columnar` +
    :func:`_release_segments`: a worker that already parked its result
    in shared memory has handed ownership to the parent, so if the
    parent aborts the merge (another shard failed, or the query was
    cancelled) the parent must still unlink this segment — otherwise
    it stays in ``/dev/shm`` until process exit.
    """
    if not (isinstance(payload, tuple) and payload
            and payload[0] == "col-shm"):
        return
    try:
        segment = shared_memory.SharedMemory(name=payload[1])
    except FileNotFoundError:  # pragma: no cover - already reaped
        return
    segment.close()
    segment.unlink()


def _drain_futures(futures: list) -> None:
    """Error/cancel path: reap every unconsumed future's shm segment.

    Cancels what has not started, then waits for the rest — a running
    shard cannot be interrupted, and letting it finish is the only way
    to learn its segment name and unlink it.  Worker exceptions are
    swallowed here (the caller is already unwinding with the primary
    error).
    """
    for future in futures:
        future.cancel()
    for future in futures:
        try:
            payload = future.result()
        # repro: lint-ok[RL006] drain path: the caller is already
        except BaseException:   # unwinding with the primary error
            continue
        try:
            _unlink_payload(payload)
        except OSError:  # pragma: no cover - segment already gone
            pass


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

def _import_engine() -> int:
    """Pre-import the join machinery (see :func:`warm_pool`)."""
    import repro.core.steps      # noqa: F401
    import repro.staircase.kernels_vec  # noqa: F401
    import repro.storage         # noqa: F401

    return os.getpid()


def _worker_stored(store_ref: StoreRef):
    """The worker's cached stored-document facade for a store ref.

    ``open_store_reader`` caches the mapped :class:`StoreReader` per
    path and the reader caches the facade per uri, so across all shard
    jobs of a worker process each store file is opened and validated
    exactly once and the shred/region-index rebuilds are reused.
    """
    from repro.storage import open_store_reader

    path, uri = store_ref
    return open_store_reader(path).stored(uri)


def _touch_store(path: str, uris: tuple[str, ...]) -> int:
    """Map a store and build its facades in this worker (pre-fork)."""
    for uri in uris:
        _worker_stored((path, uri))
    return os.getpid()


def _staircase_shard(store_ref: StoreRef, axis: str,
                     its: np.ndarray, pres: np.ndarray,
                     desc: tuple, or_self: bool):
    """One staircase iteration-range shard, run inside a worker process.

    *its*/*pres* are this shard's slice of the canonical context (whole
    iterations only); the candidate pool is the full pool, re-derived
    from the descriptor against the worker's mapped columns.
    """
    from repro.staircase.kernels_vec import (
        resolve_staircase_pool,
        vec_staircase_join,
    )

    shredded = _worker_stored(store_ref).shredded
    pool = resolve_staircase_pool(shredded, desc)
    result = vec_staircase_join(axis, shredded, (its, pres), pool,
                                or_self=or_self)
    return _pack_columnar(result)


def _standoff_shard(store_ref: StoreRef, op, chunk, wanted,
                    strategy, active_structure: str, kernel: str):
    """One StandOff fragment/iteration-range job in a worker process."""
    from repro.core.steps import _run_fragment

    index = _worker_stored(store_ref).region_index()
    candidates = index.candidates(wanted)
    result = _run_fragment(op, chunk, index, candidates, strategy,
                           active_structure, kernel)
    if isinstance(result, ColumnarResult):
        return _pack_columnar(result)
    return "raw", result


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

def run_staircase(axis: str, store_ref: StoreRef,
                  shards: list[tuple[np.ndarray, np.ndarray]],
                  desc: tuple, workers: int, *,
                  or_self: bool) -> ColumnarResult:
    """Run the iteration-range shards of a staircase join on the pool.

    *shards* are the ``(its, pres)`` slices of the canonical context a
    sharded plan cut; each job ships only its own slice (the small side
    — the pool stays behind in the mapped file).  The shard results
    merge by block concatenation: array-identical to the serial kernel.
    """

    def attempt(pool: ProcessPoolExecutor) -> ColumnarResult:
        token = current_token()
        futures = [pool.submit(_staircase_shard, store_ref, axis,
                               its, pres, desc, or_self)
                   for its, pres in shards]
        handles: list = []
        consumed = 0
        try:
            blocks = []
            for future in futures:
                blocks.append(_unpack_columnar(
                    wait_cancellable(future, token), handles))
                consumed += 1
            return concat_iteration_blocks(blocks)
        except BaseException:
            # One shard failed (or the query was cancelled): the other
            # workers may still park results in shared memory — reap
            # them, or the segments leak in /dev/shm for the life of
            # the process.
            _drain_futures(futures[consumed:])
            raise
        finally:
            _release_segments(handles)

    return _run_with_retry(workers, attempt)


def run_standoff(jobs: list[tuple], workers: int) -> list:
    """Run StandOff fragment jobs on the process pool, in job order.

    Each job is the :func:`_standoff_shard` argument tuple.  Results
    are rehydrated to what the thread path's ``_run_fragment`` returns
    — a :class:`ColumnarResult` or a reference-path dict — so
    ``ColumnarStepResult.from_fragments`` consumes them unchanged.
    """
    def attempt(pool: ProcessPoolExecutor) -> list:
        token = current_token()
        futures = [pool.submit(_standoff_shard, *job) for job in jobs]
        out = []
        consumed = 0
        try:
            for future in futures:
                payload = wait_cancellable(future, token)
                if payload[0] == "raw":
                    out.append(payload[1])
                    consumed += 1
                    continue
                handles: list = []
                try:
                    result = _unpack_columnar(payload, handles)
                    if handles:
                        # These results outlive this call (the step
                        # layer merges them later) — copy out of the
                        # segment so it can be unlinked now.
                        result = ColumnarResult(result.iters.copy(),
                                                result.offsets.copy(),
                                                result.values.copy())
                    out.append(result)
                finally:
                    _release_segments(handles)
                consumed += 1
            return out
        except BaseException:
            # See run_staircase: completed-but-unconsumed shard
            # results own shm segments that must be unlinked on the
            # way out.
            _drain_futures(futures[consumed:])
            raise

    return _run_with_retry(workers, attempt)
