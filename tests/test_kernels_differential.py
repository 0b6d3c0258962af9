"""Differential testing of the vectorized StandOff join kernels.

Seeded random workloads — varying region nesting, overlap density,
iteration counts and multi-region areas — must produce *identical*
``JoinResult``s under four independent implementations of every
StandOff operator:

* ``vectorized`` — the batched NumPy kernels (``core/kernels_vec.py``),
  which build columnar (offsets + values) results natively; both the
  lazy dict view and the fully-decoded ``to_dict()`` form must match;
* ``list`` / ``heap`` — the loop-lifted reference merge with either
  active-items structure (``core/mergejoin_ll.py``);
* ``naive`` — the quadratic transcription of the paper's definitions
  (``core/naive.py``), the semantic oracle.

The ``auto`` kernel must coincide with whichever of ``ll``/``vectorized``
it resolves to.  Any divergence is a bug in one of the join kernels.
"""

import random

import numpy as np
import pytest

from repro.config import (
    FAMILY_STANDOFF,
    KERNEL_AUTO,
    KERNEL_LL,
    KERNEL_VECTORIZED,
    KERNELS,
)
from repro.core import Area, IterContext, Region, RegionTable, StandoffOp
from repro.core.kernels_vec import kernel_join, vec_join
from repro.core.mergejoin_ll import ll_join
from repro.core.naive import naive_join_loop
from repro.relational import ColumnarResult
from repro.xquery import Database


# ----------------------------------------------------------------------
# workload generation
# ----------------------------------------------------------------------

def _random_area_regions(rng: random.Random, span: int, max_len: int,
                         multi_frac: float) -> list[tuple[int, int]]:
    """1-3 disjoint regions (valid Area: non-overlapping intervals)."""
    n_regions = 1
    if rng.random() < multi_frac:
        n_regions = rng.randint(2, 3)
    cursor = rng.randrange(span)
    regions = []
    for _ in range(n_regions):
        length = rng.randrange(max_len + 1)
        regions.append((cursor, cursor + length))
        # disjoint and non-touching (Area rejects adjacent regions)
        cursor += length + 2 + rng.randrange(max_len + 1)
    return regions


def make_workload(seed: int, *, n_iters: int, per_iter: int, n_cand: int,
                  span: int, max_len: int, multi_frac: float = 0.0):
    """A seeded random context + candidate table + naive-oracle inputs."""
    rng = random.Random(seed)
    ctx_rows = []
    ctx_areas = []
    node_id = 1_000
    for it in range(n_iters):
        for _ in range(per_iter):
            regions = _random_area_regions(rng, span, max_len, multi_frac)
            ctx_rows.extend((it, node_id, s, e) for s, e in regions)
            ctx_areas.append((it, node_id,
                              Area([Region(s, e) for s, e in regions])))
            node_id += 1
    cand_rows = []
    cand_areas = []
    for i in range(n_cand):
        cand_id = 500_000 + i
        regions = _random_area_regions(rng, span, max_len, multi_frac)
        cand_rows.extend((s, e, cand_id) for s, e in regions)
        cand_areas.append((cand_id,
                           Area([Region(s, e) for s, e in regions])))
    context = IterContext.from_rows(ctx_rows)
    candidates = RegionTable.from_rows(cand_rows)
    return context, candidates, ctx_areas, cand_areas


#: (seed, workload shape) grid: nesting comes from long max_len relative
#: to span, overlap density from small spans, loop lifting from n_iters.
WORKLOADS = [
    dict(seed=1, n_iters=1, per_iter=6, n_cand=12, span=50, max_len=20),
    dict(seed=2, n_iters=4, per_iter=4, n_cand=15, span=40, max_len=40),
    dict(seed=3, n_iters=12, per_iter=3, n_cand=25, span=300, max_len=10),
    dict(seed=4, n_iters=6, per_iter=5, n_cand=20, span=25, max_len=6),
    dict(seed=5, n_iters=3, per_iter=8, n_cand=30, span=1000, max_len=900),
    dict(seed=6, n_iters=8, per_iter=2, n_cand=18, span=60, max_len=0),
    dict(seed=7, n_iters=5, per_iter=4, n_cand=22, span=80, max_len=30,
         multi_frac=0.4),
    dict(seed=8, n_iters=2, per_iter=6, n_cand=16, span=35, max_len=35,
         multi_frac=0.7),
    dict(seed=9, n_iters=20, per_iter=1, n_cand=40, span=500, max_len=60),
    dict(seed=10, n_iters=7, per_iter=0, n_cand=10, span=50, max_len=10),
    dict(seed=11, n_iters=5, per_iter=3, n_cand=0, span=50, max_len=10),
]


@pytest.mark.parametrize("op", list(StandoffOp))
@pytest.mark.parametrize("shape", WORKLOADS,
                         ids=[f"w{w['seed']}" for w in WORKLOADS])
def test_vectorized_equals_list_heap_naive(op, shape):
    context, candidates, ctx_areas, cand_areas = make_workload(**shape)
    columnar = vec_join(op, context, candidates)
    assert isinstance(columnar, ColumnarResult)
    as_list = ll_join(op, context, candidates, active_structure="list")
    as_heap = ll_join(op, context, candidates, active_structure="heap")
    # The columnar result must decode to *exactly* the reference dicts
    # (same iteration keys, including empty anti-join entries).
    assert columnar.to_dict() == as_list, (op, shape)
    naive = naive_join_loop(
        op, [(it, nid, area) for it, nid, area in ctx_areas], cand_areas)
    naive = {it: ids for it, ids in naive.items() if ids or op.is_reject}
    # ll/vec omit iterations with no matches for the select joins; the
    # oracle keeps them as empty lists — normalise both sides.
    as_list = {it: ids for it, ids in as_list.items()
               if ids or op.is_reject}
    as_heap = {it: ids for it, ids in as_heap.items()
               if ids or op.is_reject}
    vec = {it: ids for it, ids in columnar.items() if ids or op.is_reject}
    naive = {it: ids for it, ids in naive.items() if ids or op.is_reject}
    assert vec == as_list, (op, shape)
    assert vec == as_heap, (op, shape)
    assert vec == naive, (op, shape)
    auto = kernel_join(op, context, candidates, kernel=KERNEL_AUTO)
    assert auto == ll_join(op, context, candidates), (op, shape)


@pytest.mark.parametrize("op", list(StandoffOp))
def test_larger_workload_vec_equals_ll(op):
    """A denser workload (naive would be quadratic — ll is the oracle)."""
    context, candidates, _ctx, _cand = make_workload(
        seed=99, n_iters=60, per_iter=10, n_cand=800, span=5_000,
        max_len=200, multi_frac=0.2)
    reference = ll_join(op, context, candidates)
    assert vec_join(op, context, candidates).to_dict() == reference
    # This shape sits above the auto threshold: must hit the same path.
    assert kernel_join(op, context, candidates,
                       kernel=KERNEL_AUTO) == reference


@pytest.mark.parametrize("op", list(StandoffOp))
def test_float_positions(op):
    """xs:double offsets exercise the non-integer (segment-loop) paths."""
    rng = random.Random(13)
    rows = []
    for it in range(6):
        for nid in range(5):
            s = rng.random() * 50
            rows.append((it, 100 + it * 10 + nid, s, s + rng.random() * 9))
    cand_rows = []
    for i in range(25):
        s = rng.random() * 50
        cand_rows.append((s, s + rng.random() * 9, 900 + i))
    context = IterContext.from_rows(rows)
    candidates = RegionTable.from_rows(cand_rows)
    assert vec_join(op, context, candidates) == \
        ll_join(op, context, candidates)


def test_empty_inputs():
    empty_ctx = IterContext.from_rows([])
    ctx = IterContext.from_rows([(0, 1, 2, 5)])
    empty_cand = RegionTable.from_rows([])
    cand = RegionTable.from_rows([(3, 4, 7)])
    for op in StandoffOp:
        assert vec_join(op, empty_ctx, cand) == \
            ll_join(op, empty_ctx, cand)
        assert vec_join(op, ctx, empty_cand) == \
            ll_join(op, ctx, empty_cand)


# ----------------------------------------------------------------------
# kernel selection plumbing
# ----------------------------------------------------------------------

def test_resolve_kernel_tracing_falls_back_to_ll():
    def resolve(name, **kwargs):
        return KERNELS.resolve(FAMILY_STANDOFF, name, **kwargs)

    assert resolve(KERNEL_VECTORIZED, tracing=True) == KERNEL_LL
    assert resolve(KERNEL_VECTORIZED) == KERNEL_VECTORIZED
    assert resolve(KERNEL_LL, tracing=True) == KERNEL_LL
    with pytest.raises(ValueError, match="unknown join kernel"):
        KERNELS.validate(FAMILY_STANDOFF, "simd")


def test_kernel_join_trace_uses_reference_path():
    context, candidates, _ctx, _cand = make_workload(
        seed=21, n_iters=3, per_iter=3, n_cand=10, span=40, max_len=15)
    events = []
    traced = kernel_join(StandoffOp.SELECT_NARROW, context, candidates,
                         kernel=KERNEL_VECTORIZED, trace=events.append)
    assert events, "tracing must produce Listing 1 events"
    assert traced == kernel_join(StandoffOp.SELECT_NARROW, context,
                                 candidates, kernel=KERNEL_VECTORIZED)


ANNOTATED = """
<doc>
  <a nr="1" start="0" end="30"/>
  <a nr="2" start="40" end="90"/>
  <b nr="3" start="5" end="12"/>
  <b nr="4" start="25" end="45"/>
  <b nr="5" start="50" end="60"/>
  <c nr="6" start="55" end="58"/>
</doc>
"""

QUERIES = [
    'doc("d.xml")//a/select-narrow::b',
    'doc("d.xml")//a/select-wide::b',
    'doc("d.xml")//a/reject-narrow::b',
    'doc("d.xml")//a/reject-wide::b',
    'for $a in doc("d.xml")//a return count($a/select-wide::b)',
    'for $b in doc("d.xml")//b return $b/select-narrow::c/@nr',
]


@pytest.mark.parametrize("strategy", ["basic", "ll"])
@pytest.mark.parametrize("query", QUERIES)
def test_engine_kernels_agree(strategy, query):
    """Real queries give the same answers under both kernels."""
    db = Database()
    db.add_document("d.xml", ANNOTATED)
    reference = db.query(query, strategy=strategy,
                         kernel=KERNEL_LL).serialize()
    vectorized = db.query(query, strategy=strategy,
                          kernel=KERNEL_VECTORIZED).serialize()
    assert vectorized == reference
    assert db.query(query, strategy=strategy,
                    kernel=KERNEL_AUTO).serialize() == reference


def test_engine_rejects_unknown_kernel():
    db = Database()
    with pytest.raises(ValueError, match="unknown join kernel"):
        db.query("1", kernel="warp9")


def test_cli_kernel_flag_and_command(tmp_path):
    from repro.cli import CliSession
    import io

    doc = tmp_path / "d.xml"
    doc.write_text(ANNOTATED)
    out = io.StringIO()
    session = CliSession(out=out)
    session.handle(f"\\load d.xml {doc}")
    session.handle("\\kernel vectorized")
    assert session.options.kernel == "vectorized"
    session.handle('doc("d.xml")//a/select-wide::b')
    text = out.getvalue()
    assert "kernel = vectorized" in text
    assert "(3 item(s))" in text
    session.handle("\\kernel turbo")
    assert session.options.kernel == "vectorized"
    assert "error: unknown join kernel 'turbo'" in out.getvalue()


def test_vectorized_matches_ll_on_random_documents():
    """End-to-end randomized check through the query engine."""
    rng = random.Random(4242)
    for _ in range(8):
        parts = ["<doc>"]
        for i in range(rng.randrange(1, 16)):
            name = rng.choice(("alpha", "beta"))
            start = rng.randrange(0, 70)
            parts.append(f'<{name} nr="{i}" start="{start}" '
                         f'end="{start + rng.randrange(0, 30)}"/>')
        parts.append("</doc>")
        db = Database()
        db.add_document("d.xml", "".join(parts))
        for axis in ("select-narrow", "select-wide",
                     "reject-narrow", "reject-wide"):
            query = f'doc("d.xml")//alpha/{axis}::beta'
            for strategy in ("basic", "ll"):
                assert db.query(query, strategy=strategy,
                                kernel="vectorized").serialize() == \
                    db.query(query, strategy=strategy,
                             kernel="ll").serialize()


def test_probe_pair_estimate_saturates_instead_of_wrapping():
    """The auto-kernel density guard compares the probe-pair estimate
    against AUTO_KERNEL_MAX_PAIRS; a wrapped int64 sum would go
    negative and silently pass the guard.  The window sum must saturate
    at the cap instead."""
    from repro.config import AUTO_KERNEL_MAX_PAIRS, KERNELS
    from repro.core.kernels_vec import (
        estimate_probe_pairs,
        saturating_pair_count,
    )
    from repro.relational.columnar import INT64_BUDGET

    # At the boundary: counts whose true total (2**64) wraps an int64
    # sum to exactly 0 — the worst case for the guard.
    counts = np.full(4096, 2 ** 52, dtype=np.int64)
    assert int(counts.sum()) == 0, "fixture must actually wrap"
    assert saturating_pair_count(counts) == INT64_BUDGET
    assert saturating_pair_count(counts) > AUTO_KERNEL_MAX_PAIRS
    assert KERNELS.select("standoff", "auto", context_rows=10_000,
                          candidate_rows=10_000,
                          probe_pairs=saturating_pair_count(counts)) \
        == "ll"
    # Just below the cap the sum stays exact.
    small = np.asarray([3, 0, 41], dtype=np.int64)
    assert saturating_pair_count(small) == 44
    assert saturating_pair_count(np.empty(0, np.int64)) == 0
    # And the estimate itself remains exact on a real workload.
    context, candidates, _ctx_areas, _cand_areas = make_workload(
        11, n_iters=20, per_iter=3, n_cand=200, span=5_000, max_len=400)
    estimate = estimate_probe_pairs(context, candidates)
    assert 0 < estimate < INT64_BUDGET
