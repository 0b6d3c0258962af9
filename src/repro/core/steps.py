"""High-level StandOff step execution: strategies, sharding, dispatch.

This module glues the join algorithms to *step* semantics (§3.3).  A
step matches nodes of its own fragment only, so the caller runs it once
per XML fragment and concatenates the results (§4.4) — exactly as it
runs a Staircase step; :func:`standoff_step` is one fragment's join:

* the context is the fragment's ``(iter, pre)`` columns, sorted by
  iteration; the ``[start, end]`` values of the context node ids are
  **fetched from the region index** and the context is re-sorted on
  start;
* the **candidate sequence** is the whole region index, or an
  id-intersection with a candidate id set when a selection (usually an
  element name test) was pushed down;
* results are unique node ids in document order per iteration, as a
  :class:`~repro.relational.columnar.ColumnarResult`.

Three evaluation strategies reproduce the paper's three implementations:

========== =============================================================
``udf``     quadratic nested-loop join, the semantics of the XQuery
            user-defined functions of Figures 2/3
``basic``   Basic StandOff MergeJoin, invoked once per loop iteration
``ll``      Loop-Lifted StandOff MergeJoin, one pass for all iterations
========== =============================================================
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.config import (
    DEFAULT_KERNEL,
    DEFAULT_SHARD_MIN_ROWS,
    DEFAULT_WORKERS,
    EXECUTOR_PROCESS,
    check_kernel,
    normalize_executor,
)
from repro.exec.sharding import run_by_iteration
from repro.core.kernels_vec import kernel_join
from repro.core.mergejoin_basic import basic_join
from repro.core.mergejoin_ll import IterContext
from repro.core.naive import StandoffOp, naive_join_loop
from repro.core.region_index import RegionIndex, RegionTable
from repro.relational.columnar import ColumnarResult, expand_ranges, \
    run_starts


class Strategy(Enum):
    """How a StandOff step is evaluated (paper §4.6's three variants)."""

    UDF = "udf"
    BASIC = "basic"
    LOOP_LIFTED = "ll"

    @classmethod
    def from_name(cls, name: str) -> "Strategy":
        for strat in cls:
            if strat.value == name or strat.name.lower() == name.lower():
                return strat
        raise ValueError(f"unknown standoff strategy {name!r}; "
                         f"expected one of {[s.value for s in cls]}")


def standoff_step(op: StandoffOp, index: RegionIndex,
                  context: tuple[np.ndarray, np.ndarray],
                  candidate_ids: np.ndarray | None = None, *,
                  strategy: Strategy = Strategy.LOOP_LIFTED,
                  kernel: str = DEFAULT_KERNEL,
                  workers=DEFAULT_WORKERS,
                  shard_min_rows: int = DEFAULT_SHARD_MIN_ROWS,
                  executor: str | None = None,
                  ) -> ColumnarResult:
    """Execute one StandOff step over one fragment.

    :param op: which of the four joins to perform.
    :param index: the fragment's region index.
    :param context: ``(its, pres)`` — the context's iteration and node
        id columns, sorted by iteration.  Context nodes without region
        information are not area-annotations and are ignored (they
        cannot participate in a StandOff join).
    :param candidate_ids: the pushed-down selection — the node ids the
        result may contain.  ``None`` disables pushdown (the entire
        index is the candidate sequence).
    :param strategy: evaluation strategy (see module docstring).
    :param kernel: join kernel of the ``ll`` strategy —
        ``"vectorized"`` (batched NumPy kernels,
        :mod:`repro.core.kernels_vec`) or ``"ll"`` (Listing 1's
        row-at-a-time merge).  ``udf`` and ``basic`` are the paper's
        reference strategies and ignore it.
    :param workers: fan-out setting (``"serial"`` or a worker count).
        A large context is split into contiguous *iteration ranges*
        (every StandOff operator, anti-joins included, is decided per
        iteration, so a shard owning all rows of its iterations
        reproduces the unsharded per-iteration slices exactly) by
        :func:`repro.exec.sharding.run_by_iteration`, the fan-out the
        Staircase step uses too; ``"serial"`` runs inline.
    :param shard_min_rows: minimum context rows per iteration-range
        shard (see :func:`repro.exec.sharding.partition_by_iteration`).
    :param executor: where a sharded fan-out runs — ``"thread"`` (the
        shared thread pool, the default) or ``"process"``.  The process
        path (:mod:`repro.exec.procpool`) only engages when the region
        index is backed by a mapped store file (``index.store_ref``):
        workers re-open the store by path and re-derive
        ``index.candidates(candidate_ids)`` locally, so job descriptors
        stay tiny.  An in-memory index runs on threads — same answers
        either way, enforced by the differential suite.
    :returns: ``iter -> node ids``, unique and ascending (= document
        order) per iteration.
    """
    check_kernel(kernel)
    its, pres = context
    remote = None
    if normalize_executor(executor) == EXECUTOR_PROCESS \
            and index.store_ref is not None:
        from repro.exec.procpool import standoff_shard

        remote = (standoff_shard,
                  (index.store_ref, op, candidate_ids, strategy, kernel))
    candidates = index.candidates(candidate_ids)
    return run_by_iteration(
        lambda its, pres: _run_fragment(op, its, pres, index, candidates,
                                        strategy, kernel),
        its, pres, workers, shard_min_rows=shard_min_rows, remote=remote)


def _run_fragment(op: StandoffOp, its: np.ndarray, pres: np.ndarray,
                  index: RegionIndex, candidates: RegionTable,
                  strategy: Strategy, kernel: str) -> ColumnarResult:
    """Run one fragment's join (or one shard of it) under the chosen
    strategy; the reference paths' dict results are columnarized."""
    if not len(its):
        return ColumnarResult.empty()
    if strategy is Strategy.UDF:
        context_rows = []
        for iteration, node_id in zip(its.tolist(), pres.tolist()):
            area = index.area_of(node_id)
            if area is not None:
                context_rows.append((iteration, node_id, area))
        cand_rows = [(nid, index.area_of(nid))
                     for nid in _unique_ids(candidates)]
        return ColumnarResult.from_dict(
            naive_join_loop(op, context_rows, cand_rows))

    if strategy is Strategy.BASIC:
        # The merge restarts once per iteration — the §4.6 cost model
        # being measured.
        bounds = np.append(run_starts(its), len(its)).tolist()
        out = {}
        for a, b in zip(bounds, bounds[1:]):
            fetched = index.fetch(pres[a:b])
            if len(fetched):
                out[int(its[a])] = basic_join(op, fetched, candidates)
        return ColumnarResult.from_dict(out)

    result = kernel_join(op, _iter_context(index, its, pres), candidates,
                         kernel=kernel)
    if isinstance(result, ColumnarResult):
        return result
    return ColumnarResult.from_dict(result)


def _iter_context(index: RegionIndex, its: np.ndarray,
                  pres: np.ndarray) -> IterContext:
    """The ``iter|id|start|end`` context of the loop-lifted join: every
    ``(iter, pre)`` row once per region of its node, found by sorting
    the context's fetched regions on id and expanding each row's range
    of them."""
    fetched = index.fetch(pres)
    order = np.argsort(fetched.ids, kind="stable")
    ids = fetched.ids[order]
    rep_its, at, _bounds = expand_ranges(
        its, np.searchsorted(ids, pres, side="left"),
        np.searchsorted(ids, pres, side="right"))
    rows = order[at]
    return IterContext.from_columns(rep_its, fetched.ids[rows],
                                    fetched.starts[rows],
                                    fetched.ends[rows])


def _unique_ids(candidates) -> list[int]:
    """Candidate ids, first-occurrence (= start-cluster) order preserved."""
    _uniq, first = np.unique(candidates.ids, return_index=True)
    return candidates.ids[np.sort(first)].tolist()
