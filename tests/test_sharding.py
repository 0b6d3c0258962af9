"""The sharded fan-out execution layer (`repro.exec.sharding`).

Covers the one shard planner (iteration ranges), the thread-pool
dispatcher, the one merge (block concatenation, checked against the
serial kernel on adversarial shard boundaries), the unknown-kernel
error contract, and the sharded execution paths of both join families
— including the two known fallback corners
(``following-sibling``/``preceding-sibling`` DOM walks and constructed
fragments) under the default kernel + sharding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.config import (
    SUPPORTED_KERNELS,
    WORKERS_SERIAL,
    check_kernel,
    check_staircase_axis,
    normalize_workers,
)
from repro.core.naive import StandoffOp
from repro.core.steps import Strategy, standoff_step
from repro.exec.sharding import (
    Shard,
    concat_iteration_blocks,
    partition_by_iteration,
    run_shards,
)
from repro.relational.columnar import ColumnarResult, run_starts
from repro.staircase import staircase_join, vec_staircase_join
from repro.xmldb import parse_document, shred
from repro.xquery import Database


# ----------------------------------------------------------------------
# the planner
# ----------------------------------------------------------------------

class TestPartitionByIteration:
    def test_serial_is_single_shard(self):
        plan = partition_by_iteration([1] * 1000, WORKERS_SERIAL,
                                      shard_min_rows=1)
        assert not plan.is_sharded
        assert plan.shards == (Shard(0, 1000),)

    def test_workers_cap(self):
        plan = partition_by_iteration([1] * 1000, 2, shard_min_rows=1)
        assert plan.n_shards == 2

    def test_no_iterations(self):
        plan = partition_by_iteration([], 4, shard_min_rows=1)
        assert not plan.is_sharded and plan.shards[0].n_rows == 0

    def test_normalize_workers(self):
        assert normalize_workers(WORKERS_SERIAL) == 1
        assert normalize_workers(None) == 1
        assert normalize_workers(4) == 4
        assert normalize_workers("4") == 4
        with pytest.raises(ValueError, match="workers"):
            normalize_workers("many")
        with pytest.raises(ValueError, match="workers"):
            normalize_workers(0)

    def test_never_splits_an_iteration(self):
        plan = partition_by_iteration([10] * 8, 4, shard_min_rows=5)
        assert plan.is_sharded
        assert plan.shards[0].lo == 0 and plan.shards[-1].hi == 8
        for a, b in zip(plan.shards[:-1], plan.shards[1:]):
            assert a.hi == b.lo

    def test_single_iteration_is_one_shard(self):
        plan = partition_by_iteration([100_000], 4, shard_min_rows=1)
        assert not plan.is_sharded

    def test_skewed_counts_keep_shards_nonempty(self):
        plan = partition_by_iteration([1000, 1, 1], 4, shard_min_rows=1)
        assert all(s.n_rows >= 1 for s in plan.shards)
        assert plan.shards[-1].hi == 3

    def test_min_rows_enforced_on_every_shard(self):
        # A dominant iteration must not strand a tiny trailing shard.
        plan = partition_by_iteration([1023, 1, 1], 4,
                                      shard_min_rows=512)
        assert not plan.is_sharded
        counts = [512] * 3 + [2]
        plan = partition_by_iteration(counts, 4, shard_min_rows=512)
        cum = [0]
        for c in counts:
            cum.append(cum[-1] + c)
        for shard in plan.shards:
            assert cum[shard.hi] - cum[shard.lo] >= 512

    def test_small_total_stays_serial(self):
        plan = partition_by_iteration([1, 1, 1], 4, shard_min_rows=100)
        assert not plan.is_sharded

    def test_balances_row_counts(self):
        plan = partition_by_iteration([5] * 100, 4, shard_min_rows=25)
        assert plan.n_shards == 4
        sizes = [s.n_rows for s in plan.shards]
        assert max(sizes) - min(sizes) <= 1


# ----------------------------------------------------------------------
# the dispatcher
# ----------------------------------------------------------------------

class TestRunShards:
    def test_preserves_job_order(self):
        jobs = [lambda i=i: i * i for i in range(20)]
        assert run_shards(jobs, 4) == [i * i for i in range(20)]

    def test_serial_runs_inline(self):
        import threading

        main = threading.get_ident()
        seen = []
        jobs = [lambda: seen.append(threading.get_ident())] * 3
        run_shards(jobs, WORKERS_SERIAL)
        assert seen == [main] * 3

    def test_exceptions_propagate(self):
        def boom():
            raise RuntimeError("shard failed")

        with pytest.raises(RuntimeError, match="shard failed"):
            run_shards([lambda: 1, boom, lambda: 2], 4)

    def test_empty_jobs(self):
        assert run_shards([], 4) == []


# ----------------------------------------------------------------------
# the merge: block concatenation
# ----------------------------------------------------------------------

def assert_csr_invariants(result: ColumnarResult) -> None:
    iters, offsets, values = result.iters, result.offsets, result.values
    assert len(offsets) == len(iters) + 1
    assert offsets[0] == 0 and offsets[-1] == len(values)
    assert np.all(np.diff(offsets) >= 0)
    if len(iters) > 1:
        assert np.all(np.diff(iters) > 0)
    for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        chunk = values[a:b]
        if len(chunk) > 1:
            assert np.all(np.diff(chunk) > 0)


def assert_arrays_equal(got: ColumnarResult, want: ColumnarResult,
                        label=None) -> None:
    for column in ("iters", "offsets", "values"):
        assert np.array_equal(getattr(got, column),
                              getattr(want, column)), (label, column)


STAIRCASE_AXES = ("descendant", "ancestor", "child", "following",
                  "preceding", "following-sibling", "preceding-sibling")


def _tree_xml(n: int) -> str:
    return ("<r>"
            + "".join(f"<a i='{i}'><b><c/></b><d/></a>" for i in range(n))
            + "</r>")


def _canonical(context) -> tuple[np.ndarray, np.ndarray]:
    rows = np.unique(np.asarray(context, dtype=np.int64), axis=0)
    return rows[:, 0], rows[:, 1]


def _blocks_at(axis, sh, its, pres, cuts, candidates=None):
    """The kernel run on the context slices between the given
    iteration-ordinal *cuts* (repeated cuts make empty shards)."""
    bounds = np.append(run_starts(its), len(its))
    edges = [0, *cuts, len(bounds) - 1]
    return [vec_staircase_join(axis, sh,
                               (its[bounds[lo]:bounds[hi]],
                                pres[bounds[lo]:bounds[hi]]), candidates)
            for lo, hi in zip(edges[:-1], edges[1:])]


class TestConcatIterationBlocks:
    def test_empty_input(self):
        assert concat_iteration_blocks([]).to_dict() == {}

    def test_all_empty_shards(self):
        merged = concat_iteration_blocks([ColumnarResult.empty()] * 3)
        assert merged.to_dict() == {}

    def test_single_block_is_copied(self):
        # The process path merges views into shared-memory segments it
        # unlinks right after: the output must own its memory.
        one = ColumnarResult.from_dict({3: [1, 2], 9: [5]})
        merged = concat_iteration_blocks([one, ColumnarResult.empty()])
        assert_arrays_equal(merged, one)
        assert not np.shares_memory(merged.values, one.values)

    def test_empty_shards_interleaved(self):
        a = ColumnarResult.from_dict({5: [1]})
        b = ColumnarResult.from_dict({6: [2], 7: [9]})
        merged = concat_iteration_blocks([a, ColumnarResult.empty(), b])
        assert merged.to_dict() == {5: [1], 6: [2], 7: [9]}
        assert_csr_invariants(merged)

    def test_preserved_empty_iterations(self):
        # Anti-join shape: an iteration present with an empty slice
        # survives the merge (its key must not be dropped).
        a = ColumnarResult(np.array([1, 2]), np.array([0, 0, 1]),
                           np.array([4]))
        b = ColumnarResult(np.array([3, 4]), np.array([0, 1, 1]),
                           np.array([8]))
        merged = concat_iteration_blocks([a, b])
        assert merged.to_dict() == {1: [], 2: [4], 3: [8], 4: []}
        assert_csr_invariants(merged)

    @given(per_shard=st.lists(
        st.dictionaries(st.integers(0, 6),
                        st.lists(st.integers(0, 50), min_size=1,
                                 max_size=5),
                        max_size=4),
        min_size=1, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_matches_dict_oracle(self, per_shard):
        """Disjoint-iteration shards in ascending order (what the plan
        guarantees): offset each shard's iterations into its own
        range; merge == from_dict of the union."""
        shards, expected = [], {}
        for i, data in enumerate(per_shard):
            shifted = {it + 100 * i: sorted(set(vals))
                       for it, vals in data.items()}
            expected.update(shifted)
            shards.append(ColumnarResult.from_dict(shifted))
        merged = concat_iteration_blocks(shards)
        assert_csr_invariants(merged)
        assert_arrays_equal(merged, ColumnarResult.from_dict(expected))

    @given(context=st.lists(st.tuples(st.integers(0, 9),
                                      st.integers(0, 60)),
                            min_size=1, max_size=40),
           cuts=st.lists(st.integers(0, 10), max_size=5).map(sorted))
    @settings(max_examples=60, deadline=None)
    def test_any_iteration_cut_matches_serial_kernel(self, context, cuts):
        """Adversarial shard boundaries — empty shards (repeated
        cuts), single-iteration shards, iterations whose result is
        empty and so absent from their shard — on every axis: kernel
        per slice + block merge == the kernel on the whole context."""
        sh = shred(parse_document(_tree_xml(12)))
        its, pres = _canonical(context)
        n_iters = len(np.unique(its))
        cuts = [min(cut, n_iters) for cut in cuts]
        for axis in STAIRCASE_AXES:
            for candidates in (None, sh.all_element_pres()):
                serial = vec_staircase_join(axis, sh, (its, pres),
                                            candidates)
                merged = concat_iteration_blocks(
                    _blocks_at(axis, sh, its, pres, cuts, candidates))
                assert_csr_invariants(merged)
                assert_arrays_equal(merged, serial, axis)

    def test_dominant_iteration(self):
        """One iteration owning almost every context row next to
        single-row iterations: the planner may only cut around it."""
        sh = shred(parse_document(_tree_xml(40)))
        elements = sh.all_element_pres().tolist()
        context = [(3, pre) for pre in elements] \
            + [(it, elements[it]) for it in (0, 1, 2, 4, 5, 6)]
        for axis in STAIRCASE_AXES:
            serial = staircase_join(axis, sh, context,
                                    kernel="vectorized",
                                    workers=WORKERS_SERIAL)
            sharded = staircase_join(axis, sh, context,
                                     kernel="vectorized", workers=4,
                                     shard_min_rows=1)
            assert_arrays_equal(sharded, serial, axis)


# ----------------------------------------------------------------------
# unknown kernel / axis error contract
# ----------------------------------------------------------------------

class TestKernelErrors:
    def test_unknown_kernel_lists_the_kernels(self):
        with pytest.raises(errors.UnknownKernelError) as info:
            check_kernel("warp9")
        message = str(info.value)
        assert "unknown join kernel 'warp9'" in message
        for name in SUPPORTED_KERNELS:
            assert name in message

    def test_unknown_axis_lists_the_axes(self):
        with pytest.raises(errors.UnknownKernelError,
                           match="no staircase kernel for axis "
                                 "'sideways'") as info:
            check_staircase_axis("sideways")
        assert "following-sibling" in str(info.value)

    def test_not_a_keyerror(self):
        for check, name in ((check_kernel, "warp9"),
                            (check_staircase_axis, "sideways")):
            with pytest.raises(errors.UnknownKernelError) as info:
                check(name)
            assert not isinstance(info.value, KeyError), check

    def test_backwards_compatible_with_valueerror(self):
        # Callers that predate the dedicated type catch ValueError.
        assert issubclass(errors.UnknownKernelError, ValueError)
        assert issubclass(errors.UnknownKernelError, errors.ReproError)
        with pytest.raises(ValueError):
            check_kernel("warp9")


# ----------------------------------------------------------------------
# sharded execution == serial reference (both families)
# ----------------------------------------------------------------------

class TestShardedStaircase:
    def test_sharded_equals_serial_all_axes(self):
        doc = parse_document(_tree_xml(40))
        sh = shred(doc)
        context = [(it, pre) for it, pre in
                   enumerate(range(1, len(sh) - 1, 5))]
        for axis in STAIRCASE_AXES:
            for candidates in (None, sh.all_element_pres(),
                               sh.pre[::3]):
                serial = staircase_join(axis, sh, context, candidates,
                                        kernel="vectorized",
                                        workers=WORKERS_SERIAL)
                sharded = staircase_join(axis, sh, context, candidates,
                                         kernel="vectorized", workers=4,
                                         shard_min_rows=1)
                assert_arrays_equal(sharded, serial,
                                    (axis, candidates is None))

    def test_sharded_or_self(self):
        doc = parse_document(_tree_xml(25))
        sh = shred(doc)
        context = [(it, pre) for it, pre in
                   enumerate(range(0, len(sh), 4))]
        for axis in ("descendant", "ancestor"):
            serial = staircase_join(axis, sh, context,
                                    sh.all_element_pres(), or_self=True,
                                    kernel="vectorized",
                                    workers=WORKERS_SERIAL)
            sharded = staircase_join(axis, sh, context,
                                     sh.all_element_pres(), or_self=True,
                                     kernel="vectorized", workers=4,
                                     shard_min_rows=1)
            assert serial == sharded, axis

    def test_ll_kernel_ignores_workers(self):
        # The reference path is the oracle; it never fans out.
        doc = parse_document(_tree_xml(10))
        sh = shred(doc)
        context = [(0, 0), (1, 1)]
        serial = staircase_join("descendant", sh, context, kernel="ll")
        sharded = staircase_join("descendant", sh, context, kernel="ll",
                                 workers=4, shard_min_rows=1)
        assert serial == sharded


def _standoff_db(n: int = 60) -> Database:
    xml = "<doc>" + "".join(
        f"<music start='{i * 10}' end='{i * 10 + 25}'/>"
        f"<shot start='{i * 10 + 2}' end='{i * 10 + 8}'/>"
        for i in range(n)) + "</doc>"
    db = Database()
    db.add_document("v.xml", xml)
    return db


class TestShardedStandoff:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_step_level_sharded_equals_serial(self, tmp_path, monkeypatch,
                                              executor):
        from repro import storage
        from repro.exec import procpool, sharding

        path = str(tmp_path / "v.repro")
        storage.save_store(path, _standoff_db())
        index = storage.open_store(path).store.get("v.xml").region_index()
        assert index.store_ref is not None
        ids = index.annotated_ids()
        its = np.arange(len(ids), dtype=np.int64) // 3
        fanned = []
        if executor == "thread":
            real_threads = sharding.run_shards

            def spy_threads(jobs, workers):
                fanned.append(len(jobs))
                return real_threads(jobs, workers)

            monkeypatch.setattr(sharding, "run_shards", spy_threads)
        else:
            real_procs = procpool.run_process_shards

            def spy_procs(worker, jobs, workers):
                assert worker is procpool.standoff_shard
                fanned.append(len(jobs))
                return real_procs(worker, jobs, workers)

            monkeypatch.setattr(procpool, "run_process_shards", spy_procs)
        for op in StandoffOp:
            serial = standoff_step(op, index, (its, ids),
                                   strategy=Strategy.LOOP_LIFTED,
                                   kernel="vectorized",
                                   workers=WORKERS_SERIAL)
            sharded = standoff_step(op, index, (its, ids),
                                    strategy=Strategy.LOOP_LIFTED,
                                    kernel="vectorized", workers=4,
                                    shard_min_rows=1, executor=executor)
            assert serial == sharded, op
        assert len(fanned) == len(StandoffOp)
        assert all(jobs == 4 for jobs in fanned), fanned

    @pytest.mark.parametrize("strategy", ["udf", "basic", "ll"])
    @pytest.mark.parametrize("kernel", SUPPORTED_KERNELS)
    def test_engine_level_sharded_equals_serial(self, strategy, kernel):
        db = _standoff_db()
        query = ('for $m in doc("v.xml")//music '
                 'return $m/select-wide::shot')
        serial = db.query(query, strategy=strategy,
                          kernel=kernel).serialize()
        sharded = db.query(query, strategy=strategy, kernel=kernel,
                           workers=4, shard_min_rows=1).serialize()
        assert serial == sharded, (strategy, kernel)

    def test_engine_rejects_bad_shard_min_rows(self):
        db = _standoff_db(5)
        with pytest.raises(ValueError, match="shard_min_rows"):
            db.query('doc("v.xml")//music', shard_min_rows=0)

    def test_anti_join_sharded(self):
        db = _standoff_db()
        query = ('for $m in doc("v.xml")//music '
                 'return count($m/reject-narrow::shot)')
        serial = db.query(query, strategy="ll").serialize()
        sharded = db.query(query, strategy="ll", workers=4,
                           shard_min_rows=1).serialize()
        assert serial == sharded

    def test_multi_fragment_sharded(self):
        # Constructed fragments + a stored document in one step.
        db = _standoff_db(20)
        query = ('let $f := <r><m start="5" end="50">'
                 '<s start="7" end="9"/></m></r> '
                 'return ($f//m/select-wide::s, '
                 'doc("v.xml")//music/select-wide::shot)')
        serial = db.query(query, strategy="ll").serialize()
        sharded = db.query(query, strategy="ll", workers=4,
                           shard_min_rows=1).serialize()
        assert serial == sharded


# ----------------------------------------------------------------------
# regression: the former fallback corners now run on the kernel path
# ----------------------------------------------------------------------

SIBLING_XML = ('<r><a i="1"/><b/><a i="2"><c/><d/><c/></a>'
               '<b j="9"/><a i="3"/>text<b/></r>')


class _NoDomWalk(dict):
    """An AXIS_FUNCTIONS stand-in that fails the test on first access —
    proof that a query never reached the generic DOM-walk step."""

    def __getitem__(self, axis):
        raise AssertionError(
            f"DOM-walk fallback reached for axis {axis!r}")


@pytest.fixture
def forbid_dom_walk(monkeypatch):
    from repro.xquery import bulk

    monkeypatch.setattr(bulk, "AXIS_FUNCTIONS", _NoDomWalk())


class TestFormerFallbackCorners:
    """PR 3/4 left two gaps that dropped to the per-node DOM walk:
    sibling axes and constructed fragments.  Both now run through the
    staircase kernel path — these tests additionally *forbid* the DOM
    walk while asserting oracle agreement under sharding."""

    @pytest.mark.parametrize("axis", ["following-sibling",
                                      "preceding-sibling"])
    def test_sibling_axes_on_kernel_path_sharded(self, axis,
                                                 forbid_dom_walk):
        db = Database()
        db.add_document("d.xml", SIBLING_XML)
        for query in (f'doc("d.xml")//a/{axis}::b',
                      f'doc("d.xml")//b/{axis}::node()',
                      f'for $a in doc("d.xml")//a '
                      f'return count($a/{axis}::*)'):
            reference = db.query(query, strategy="basic").serialize()
            for kernel in SUPPORTED_KERNELS:
                got = db.query(query, strategy="ll", kernel=kernel,
                               workers=4, shard_min_rows=1).serialize()
                assert got == reference, (axis, query, kernel)

    def test_constructed_fragments_on_kernel_path_sharded(
            self, forbid_dom_walk):
        """Constructed fragments shred on demand; the staircase path
        must serve them without the DOM walk — correct and crash-free
        under the default kernel + workers."""
        db = Database()
        db.add_document("d.xml", SIBLING_XML)
        queries = [
            'let $f := <x><a><b/><b/></a><c><b/></c></x> '
            'return $f/descendant::b',
            'let $f := <x><a><b/></a></x> '
            'return for $b in $f//b return count($b/ancestor::*)',
            'let $f := <x><a/><b/><c/></x> return $f/child::node()',
            'let $f := <x><a/>mid<b/><c/></x> '
            'return $f/a/following-sibling::node()',
        ]
        for query in queries:
            reference = db.query(query, strategy="basic").serialize()
            got = db.query(query, strategy="ll", workers=4,
                           shard_min_rows=1).serialize()
            assert got == reference, query

    def test_mixed_stored_and_constructed_context(self, forbid_dom_walk):
        """A step whose context mixes a stored document with a
        constructed fragment runs one kernel join per fragment and
        merges per iteration in document order."""
        db = Database()
        db.add_document("d.xml", SIBLING_XML)
        queries = [
            'for $x in (doc("d.xml")/r, <x><a><b/></a></x>) '
            'return count($x/descendant::*)',
            '(doc("d.xml")/r, <x><y/><z/></x>)/child::*',
        ]
        for query in queries:
            reference = db.query(query, strategy="basic").serialize()
            got = db.query(query, strategy="ll", workers=4,
                           shard_min_rows=1).serialize()
            assert got == reference, query
