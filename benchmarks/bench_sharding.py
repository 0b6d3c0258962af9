"""Sharded fan-out execution: serial reference vs worker-pool fan-out.

Two workloads through the real execution layers (the trajectory
harness's ``sharding.*`` family sweeps sizes; this file keeps the
pytest-benchmark view at one scale):

* **StandOff iteration sharding** — a dense loop-lifted select join
  through :func:`repro.core.steps.standoff_step`; the planner splits
  the context into contiguous iteration ranges, one batched kernel
  call per shard.  This is the workload where the thread fan-out wins
  (the vectorized kernel's sort/searchsorted phases release the GIL).
* **Staircase iteration sharding** — the XMark following-axis step
  through :func:`repro.staircase.kernels_vec.staircase_join`, the same
  plan: the context cut between iterations, every shard against the
  whole bidder pool.  Output-bound (memory-bandwidth-saturated) axes
  gain little from threads; the scenario documents that honestly.
"""

import pytest

from conftest import synthetic_regions
from repro.core.naive import StandoffOp
from repro.core.steps import Strategy, standoff_step
from repro.staircase import staircase_join

N_CANDIDATES = 20_000
N_ITERS = 250
PER_ITER = 20


@pytest.fixture(scope="module")
def standoff_inputs():
    index = synthetic_regions(N_CANDIDATES, seed=3)
    ids = index.annotated_ids().tolist()
    context = []
    cursor = 0
    for it in range(N_ITERS):
        for _ in range(PER_ITER):
            context.append((it, 0, ids[cursor % len(ids)]))
            cursor += 17
    return context, {0: index}


@pytest.fixture(scope="module")
def staircase_inputs(xmark_db):
    stored = xmark_db.store.get("xmark.xml")
    shredded = stored.shredded
    context = [(it, int(pre)) for it, pre in
               enumerate(shredded.elements_named("open_auction").tolist())]
    return shredded, context, shredded.elements_named("bidder")


@pytest.mark.parametrize("workers", ["serial", 4])
def test_standoff_select_wide(benchmark, standoff_inputs, workers):
    context, indexes = standoff_inputs
    result = benchmark(lambda: standoff_step(
        StandoffOp.SELECT_WIDE, context, indexes,
        strategy=Strategy.LOOP_LIFTED, kernel="vectorized",
        workers=workers, shard_min_rows=512))
    assert len(result) == N_ITERS


@pytest.mark.parametrize("workers", ["serial", 4])
def test_staircase_following(benchmark, staircase_inputs, workers):
    shredded, context, candidates = staircase_inputs
    result = benchmark(lambda: staircase_join(
        "following", shredded, context, candidates,
        kernel="vectorized", workers=workers, shard_min_rows=512))
    assert len(result) > 0


def test_sharded_equals_serial(standoff_inputs, staircase_inputs):
    context, indexes = standoff_inputs
    serial = standoff_step(StandoffOp.SELECT_WIDE, context, indexes,
                           strategy=Strategy.LOOP_LIFTED,
                           kernel="vectorized", workers="serial")
    sharded = standoff_step(StandoffOp.SELECT_WIDE, context, indexes,
                            strategy=Strategy.LOOP_LIFTED,
                            kernel="vectorized", workers=4,
                            shard_min_rows=512)
    assert serial == sharded
    shredded, s_context, candidates = staircase_inputs
    assert staircase_join("following", shredded, s_context, candidates,
                          kernel="vectorized", workers="serial") == \
        staircase_join("following", shredded, s_context, candidates,
                       kernel="vectorized", workers=4,
                       shard_min_rows=512)
