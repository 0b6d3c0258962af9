"""High-level StandOff step execution: fragments, strategies, dispatch.

This module glues the join algorithms to *step* semantics (§3.3):

* the context sequence is first **partitioned per XML fragment**; the main
  algorithm runs once per distinct fragment and the results are
  concatenated (§4.4) — a step only matches nodes from the same fragment;
* the ``[start, end]`` values of the context node ids are **fetched from
  the region index** and the context is re-sorted on start;
* the **candidate sequence** is the whole region index, or an
  id-intersection with a candidate id set when a selection (usually an
  element name test) was pushed down;
* results are unique node ids in document order per iteration.

Three evaluation strategies reproduce the paper's three implementations:

========== =============================================================
``udf``     quadratic nested-loop join, the semantics of the XQuery
            user-defined functions of Figures 2/3
``basic``   Basic StandOff MergeJoin, invoked once per loop iteration
``ll``      Loop-Lifted StandOff MergeJoin, one pass for all iterations
========== =============================================================
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.config import (
    DEFAULT_KERNEL,
    DEFAULT_SHARD_MIN_ROWS,
    DEFAULT_WORKERS,
    EXECUTOR_PROCESS,
    check_kernel,
    normalize_executor,
    normalize_workers,
)
from repro.exec.sharding import (
    concat_iteration_blocks,
    partition_by_iteration,
    run_shards,
)
from repro.core.kernels_vec import kernel_join
from repro.core.mergejoin_basic import basic_join
from repro.core.mergejoin_ll import IterContext, JoinResult
from repro.core.naive import StandoffOp, naive_join_loop
from repro.core.region_index import RegionIndex
from repro.relational.columnar import ColumnarResult, ColumnarStepResult


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


#: A context node reference: (iteration, fragment id, node id).
ContextRef = tuple[int, int, int]


def standoff_step(op: StandoffOp,
                  context: Iterable[ContextRef],
                  indexes: Mapping[int, RegionIndex],
                  candidate_ids: Mapping[int, Sequence[int]] | None = None,
                  *,
                  strategy: Strategy = Strategy.LOOP_LIFTED,
                  kernel: str = DEFAULT_KERNEL,
                  fragment_rank: Mapping[int, int] | None = None,
                  workers=DEFAULT_WORKERS,
                  shard_min_rows: int = DEFAULT_SHARD_MIN_ROWS,
                  executor: str | None = None,
                  ) -> ColumnarStepResult:
    """Execute one StandOff step.

    :param op: which of the four joins to perform.
    :param context: ``(iter, fragment, node_id)`` triples.  Context nodes
        without region information are not area-annotations and are
        ignored (they cannot participate in a StandOff join).
    :param indexes: region index per fragment id.
    :param candidate_ids: optional pushed-down selection — per fragment,
        the node ids the result may contain.  ``None`` disables pushdown
        (the entire index is the candidate sequence).  A fragment missing
        from the mapping gets no candidates.
    :param strategy: evaluation strategy (see module docstring).
    :param kernel: join kernel of the ``ll`` strategy —
        ``"vectorized"`` (batched NumPy kernels,
        :mod:`repro.core.kernels_vec`) or ``"ll"`` (Listing 1's
        row-at-a-time merge).  ``udf`` and ``basic`` are the paper's
        reference strategies and ignore it.
    :param fragment_rank: optional explicit fragment ordering (fragment
        id -> rank); fragments are joined and concatenated in ascending
        rank so callers whose document order differs from fragment-id
        order (e.g. transient fragments keyed by object identity) get
        final order straight from the columnar concatenation.  Default:
        ascending fragment id.
    :param workers: fan-out setting (``"serial"`` or a worker count).
        Fragments are natural shards — each owns its own candidate
        table — and a fragment whose context is large is further split
        into contiguous *iteration ranges* (every StandOff operator,
        anti-joins included, is decided per iteration, so a shard
        owning all rows of its iterations reproduces the unsharded
        per-iteration slices exactly).  One join call per shard runs
        on the shared thread pool; ``"serial"`` plans one shard per
        fragment and runs inline — byte-identical to the pre-sharding
        path.
    :param shard_min_rows: minimum context rows per iteration-range
        shard (see :func:`repro.exec.sharding.partition_by_iteration`).
    :param executor: where a sharded fan-out runs — ``"thread"`` (the
        shared thread pool, the default) or ``"process"``.  The process
        path (:mod:`repro.exec.procpool`) only engages when *every*
        participating region index is backed by a mapped store file
        (``index.store_ref``): workers re-open the store by path and
        re-derive ``index.candidates(wanted)`` locally, so job
        descriptors stay tiny.  Any in-memory fragment in the mix
        falls the whole step back to threads — same answers either
        way, enforced by the differential suite.
    :returns: a :class:`~repro.relational.columnar.ColumnarStepResult` —
        ``iter -> [(fragment, node_id), ...]`` under its lazy dict view,
        unique, in document order (fragment rank, then node id ascending
        = pre-order).  The columnar arrays stay available for consumers
        that avoid decoding.
    """
    check_kernel(kernel)
    per_fragment: dict[int, list[tuple[int, int]]] = {}
    for iteration, fragment, node_id in context:
        per_fragment.setdefault(fragment, []).append((iteration, node_id))

    if fragment_rank is None:
        ordered = sorted(per_fragment)
    else:
        ordered = sorted(per_fragment,
                         key=lambda frag: fragment_rank[frag])
    frag_infos = []          # (fragment, index, wanted ids, chunks)
    for fragment in ordered:
        index = indexes.get(fragment)
        if index is None:
            continue
        if candidate_ids is None:
            wanted = None
        else:
            wanted = candidate_ids.get(fragment)
            if wanted is None:
                continue
        chunks = _iteration_chunks(per_fragment[fragment], workers,
                                   shard_min_rows)
        frag_infos.append((fragment, index, wanted, chunks))

    n_jobs = sum(len(chunks) for _f, _i, _w, chunks in frag_infos)
    use_processes = (
        normalize_executor(executor) == EXECUTOR_PROCESS
        and normalize_workers(workers) > 1 and n_jobs > 1
        and all(getattr(index, "store_ref", None) is not None
                for _f, index, _w, _c in frag_infos))

    if use_processes:
        from repro.exec.procpool import run_standoff

        results = run_standoff(
            [(index.store_ref, op, chunk, wanted, strategy, kernel)
             for _f, index, wanted, chunks in frag_infos
             for chunk in chunks],
            normalize_workers(workers))
    else:
        jobs = []
        for _f, index, wanted, chunks in frag_infos:
            candidates = index.candidates(wanted)
            for chunk in chunks:
                jobs.append(lambda chunk=chunk, index=index,
                            candidates=candidates: _run_fragment(
                                op, chunk, index, candidates, strategy,
                                kernel))
        results = run_shards(jobs, workers)
    # One part per fragment: a fragment's iteration-range chunks merge
    # by block concatenation first.  Per-fragment results are
    # id-ascending per iteration and fragments are concatenated in rank
    # order, so the stable columnar merge yields document order
    # directly; no per-pair re-sort needed.
    parts = []
    done = 0
    for fragment, _i, _w, chunks in frag_infos:
        parts.append((fragment,
                      _merge_chunks(results[done:done + len(chunks)])))
        done += len(chunks)
    return ColumnarStepResult.from_fragments(parts)


def _merge_chunks(results: list):
    """One fragment's iteration-range chunk results laid end to end
    (a single chunk passes through, dict-shaped or columnar)."""
    if len(results) == 1:
        return results[0]
    return concat_iteration_blocks([
        result if isinstance(result, ColumnarResult)
        else ColumnarResult.from_dict(result) for result in results])


def _iteration_chunks(pairs: list[tuple[int, int]], workers,
                      shard_min_rows: int) -> list[list[tuple[int, int]]]:
    """Split one fragment's ``(iteration, node_id)`` rows into
    contiguous iteration-range chunks (see
    :func:`repro.exec.sharding.partition_by_iteration`); a single-chunk
    plan returns *pairs* unchanged — the byte-identical serial path.
    Row order within a chunk is preserved."""
    # Serial mode and small fragments skip the per-iteration counting
    # pass entirely — the planner could only return a single shard.
    if normalize_workers(workers) <= 1 or shard_min_rows < 1 \
            or len(pairs) < 2 * shard_min_rows:
        return [pairs]
    counts = Counter(iteration for iteration, _node in pairs)
    uniq_iters = sorted(counts)
    plan = partition_by_iteration([counts[it] for it in uniq_iters],
                                  workers, shard_min_rows=shard_min_rows)
    if not plan.is_sharded:
        return [pairs]
    firsts = [uniq_iters[shard.lo] for shard in plan.shards]
    chunks: list[list[tuple[int, int]]] = [[] for _ in plan.shards]
    for pair in pairs:
        chunks[bisect_right(firsts, pair[0]) - 1].append(pair)
    return chunks


def _run_fragment(op: StandoffOp, pairs: list[tuple[int, int]],
                  index: RegionIndex, candidates,
                  strategy: Strategy, kernel: str):
    """Run one fragment's join under the chosen strategy.

    Returns a ``JoinResult`` dict (reference paths) or a
    :class:`~repro.relational.columnar.ColumnarResult` (vectorized
    kernel); :meth:`ColumnarStepResult.from_fragments` consumes either.
    """
    if strategy is Strategy.UDF:
        context_rows = []
        for iteration, node_id in pairs:
            area = index.area_of(node_id)
            if area is not None:
                context_rows.append((iteration, node_id, area))
        cand_rows = [(int(nid), index.area_of(int(nid)))
                     for nid in _unique_ids(candidates)]
        return naive_join_loop(op, context_rows, cand_rows)

    if strategy is Strategy.BASIC:
        # The merge restarts once per iteration — the §4.6 cost model
        # being measured.
        by_iter: dict[int, list[int]] = {}
        for iteration, node_id in pairs:
            by_iter.setdefault(iteration, []).append(node_id)
        out: JoinResult = {}
        for iteration, ids in by_iter.items():
            fetched = index.fetch(ids)
            if len(fetched) == 0:
                continue
            out[iteration] = basic_join(op, fetched, candidates)
        return out

    distinct = sorted({node_id for _iteration, node_id in pairs})
    fetched = index.fetch(distinct)
    regions_by_id: dict[int, list[tuple]] = {}
    for start, end, nid in zip(fetched.starts.tolist(),
                               fetched.ends.tolist(),
                               fetched.ids.tolist()):
        regions_by_id.setdefault(nid, []).append((start, end))
    rows = []
    for iteration, node_id in pairs:
        for start, end in regions_by_id.get(node_id, ()):
            rows.append((iteration, node_id, start, end))
    context = IterContext.from_rows(rows)
    return kernel_join(op, context, candidates, kernel=kernel)


def _unique_ids(candidates) -> list[int]:
    """Candidate ids, first-occurrence (= start-cluster) order preserved."""
    _uniq, first = np.unique(candidates.ids, return_index=True)
    return candidates.ids[np.sort(first)].tolist()
