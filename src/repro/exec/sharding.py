"""Sharded fan-out execution: one shard plan, one merge.

The loop-lifted joins are decided *per iteration* — the StandOff
operators (the select semi-joins and the reject anti-joins of §4.4)
and every Staircase axis (§4.6's ``iter|pos|item`` relation) compute an
iteration's result from that iteration's context rows alone.  One
partitioning rule is therefore exact for both join families:

* **cut the context between iterations** — a shard owns all context
  rows of a contiguous range of iterations (an iteration never
  straddles shards, or the anti-joins would complement partially and
  the staircase thresholds would be recomputed per shard), and every
  shard runs against the *whole* candidate side;
* **lay the shard results end to end** — shard results are disjoint
  CSR blocks in ascending iteration order, so the merge is a block
  concatenation, never a re-sort or a per-iteration interleave.

:func:`partition_by_iteration` builds the :class:`ShardPlan`,
:func:`run_shards` dispatches one batched kernel call per shard on a
shared thread pool (the NumPy kernels release the GIL on their large
array operations; :mod:`repro.exec.procpool` runs the same plan on
worker processes), and :func:`concat_iteration_blocks` is the merge.
:func:`run_by_iteration` strings them together for a join whose
context is one fragment's iteration-sorted ``(iter, pre)`` columns —
the one fan-out of the Staircase and the StandOff step alike.
``workers="serial"`` (the default), a single-iteration context, and a
context under ``2 * shard_min_rows`` rows plan one shard, which runs
inline under either executor — byte-identical to the unsharded
pipeline, and the deterministic reference the differential suites
compare against.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.config import (
    DEFAULT_SHARD_MIN_ROWS,
    normalize_workers,
)
from repro.exec import lockcheck
from repro.exec.cancel import check_cancelled, current_token, \
    wait_cancellable
from repro.relational.columnar import ColumnarResult, run_starts

T = TypeVar("T")


@dataclass(frozen=True)
class Shard:
    """One shard: the half-open range ``[lo, hi)`` of distinct-iteration
    ordinals it owns."""

    lo: int
    hi: int

    @property
    def n_rows(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class ShardPlan:
    """How one kernel call fans out.

    :param shards: the contiguous, gap-free iteration ranges.
    :param workers: normalized worker count the plan was built for.
    """

    shards: tuple[Shard, ...]
    workers: int

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def is_sharded(self) -> bool:
        """True when the plan actually fans out (more than one shard)."""
        return len(self.shards) > 1


def partition_by_iteration(iter_counts: Sequence[int], workers, *,
                           shard_min_rows: int = DEFAULT_SHARD_MIN_ROWS
                           ) -> ShardPlan:
    """Partition distinct iterations into contiguous ranges.

    ``iter_counts[i]`` is the number of context rows of the *i*-th
    distinct iteration (ascending iteration order).  Shard boundaries
    always fall **between** iterations and each shard owns at least
    *shard_min_rows* context rows (per-shard dispatch costs a thread
    or process hop plus one extra round of fixed NumPy overhead), so
    small contexts, single-iteration contexts and ``workers="serial"``
    plan one shard.  The returned slices index the distinct-iteration
    ordinals, not the rows.
    """
    count = normalize_workers(workers)
    counts = np.asarray(iter_counts, dtype=np.int64)
    n_groups = len(counts)
    total = int(counts.sum())
    if count <= 1 or n_groups <= 1 or shard_min_rows < 1 \
            or total < 2 * shard_min_rows:
        return ShardPlan((Shard(0, n_groups),), count)
    k = min(count, n_groups, total // shard_min_rows)       # >= 2
    # Cut where the cumulative row count crosses the even row targets;
    # a cut is only accepted when both sides keep >= shard_min_rows
    # rows, so a dominant iteration cannot strand a tiny trailing
    # shard that pays dispatch overhead for a handful of rows.
    cum = np.cumsum(counts).tolist()
    targets = [round(i * total / k) for i in range(1, k)]
    cuts = np.searchsorted(cum, targets, side="left") + 1
    bounds = [0]
    for cut in cuts.tolist():
        if not bounds[-1] < cut < n_groups:
            continue
        rows_before = cum[cut - 1] - (cum[bounds[-1] - 1]
                                      if bounds[-1] else 0)
        rows_after = total - cum[cut - 1]
        if rows_before >= shard_min_rows \
                and rows_after >= shard_min_rows:
            bounds.append(cut)
    bounds.append(n_groups)
    shards = tuple(Shard(lo, hi)
                   for lo, hi in zip(bounds[:-1], bounds[1:]))
    return ShardPlan(shards, count)


# ----------------------------------------------------------------------
# the worker pool
# ----------------------------------------------------------------------

#: Process-wide pools keyed by worker count — kernel calls are far too
#: frequent to pay thread start-up per join.  Threads, not processes:
#: the batched kernels spend their time in NumPy array operations,
#: which release the GIL.
_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = lockcheck.new_lock("sharding._POOLS_LOCK")


def _pool(workers: int) -> ThreadPoolExecutor:
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix=f"repro-shard-{workers}")
            _POOLS[workers] = pool
        return pool


def run_shards(jobs: Sequence[Callable[[], T]], workers) -> list[T]:
    """Run shard thunks, returning results in job order.

    ``workers`` of 1 (or :data:`~repro.config.WORKERS_SERIAL`), or a
    single job, runs inline — no pool, no thread hop.  Exceptions
    propagate to the caller exactly as on the serial path.

    Both paths honour the ambient cancel token
    (:mod:`repro.exec.cancel`): the inline loop checks it between
    jobs, the pooled wait polls it between shard completions and
    cancels the not-yet-started futures on the way out — this is what
    makes a serving-layer timeout actually reach the shard work
    instead of orphaning it on the pool.
    """
    count = normalize_workers(workers)
    if count <= 1 or len(jobs) <= 1:
        results = []
        for job in jobs:
            check_cancelled()
            results.append(job())
        return results
    token = current_token()
    futures = [_pool(count).submit(job) for job in jobs]
    try:
        return [wait_cancellable(future, token) for future in futures]
    except BaseException:
        for future in futures:
            future.cancel()
        raise


# ----------------------------------------------------------------------
# the merge
# ----------------------------------------------------------------------

def concat_iteration_blocks(blocks: Sequence[ColumnarResult]
                            ) -> ColumnarResult:
    """Concatenate iteration-disjoint, ordered CSR blocks.

    Because shard contexts partition the iterations in order, the
    global result is the shard results laid end to end — ``iters`` and
    ``values`` concatenate directly and each block's ``offsets`` tail
    shifts by the values emitted before it.  Blocks may be empty, may
    hold a single iteration, and may keep iterations with empty slices
    (anti-joins).  ``np.concatenate`` always copies, so the output owns
    its memory even when the inputs are views into shared-memory
    segments.
    """
    blocks = [b for b in blocks if len(b.iters)]
    if not blocks:
        return ColumnarResult.empty()
    iters = np.concatenate([b.iters for b in blocks])
    values = np.concatenate([b.values for b in blocks])
    offsets = np.empty(len(iters) + 1, np.int64)
    offsets[0] = 0
    row = 0
    shift = 0
    for b in blocks:
        k = len(b.iters)
        offsets[row + 1:row + 1 + k] = b.offsets[1:] + shift
        row += k
        shift += len(b.values)
    return ColumnarResult(iters, offsets, values)


# ----------------------------------------------------------------------
# the fan-out of one join
# ----------------------------------------------------------------------

def run_by_iteration(run: Callable[[np.ndarray, np.ndarray],
                                   ColumnarResult],
                     its: np.ndarray, pres: np.ndarray, workers, *,
                     shard_min_rows: int = DEFAULT_SHARD_MIN_ROWS,
                     remote: tuple | None = None) -> ColumnarResult:
    """Run ``run(its, pres)`` over iteration-sorted context columns,
    fanned out by iteration.

    The rows of each iteration are counted (:func:`run_starts`), the
    iterations cut into a plan (:func:`partition_by_iteration`), and
    every shard gets its slice of the columns.  A one-shard plan runs
    inline.  Otherwise the shards run on the thread pool
    (:func:`run_shards`) — or, when *remote* is ``(worker function,
    leading arguments)``, on worker processes, each job calling
    ``worker(*arguments, its, pres)``
    (:func:`repro.exec.procpool.run_process_shards`) — and the shard
    results concatenate block by block.
    """
    count = normalize_workers(workers)
    if count <= 1 or shard_min_rows < 1 or len(its) < 2 * shard_min_rows:
        return run(its, pres)
    bounds = np.append(run_starts(its), len(its))
    plan = partition_by_iteration(np.diff(bounds), count,
                                  shard_min_rows=shard_min_rows)
    if not plan.is_sharded:
        return run(its, pres)
    cuts = [(int(bounds[shard.lo]), int(bounds[shard.hi]))
            for shard in plan.shards]
    if remote is not None:
        from repro.exec.procpool import run_process_shards

        worker, arguments = remote
        return run_process_shards(
            worker, [(*arguments, its[a:b], pres[a:b]) for a, b in cuts],
            plan.workers)
    return concat_iteration_blocks(run_shards(
        [lambda a=a, b=b: run(its[a:b], pres[a:b]) for a, b in cuts],
        plan.workers))
