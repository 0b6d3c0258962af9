"""Tests for the columnar (offsets + values) join-result backbone.

Covers the ``ColumnarResult`` <-> dict round-trip (empty iterations,
unsorted input, duplicates — property-based), the ``Mapping``
compatibility adapter, the shared anti-join ``complement`` helper, the
per-fragment columnar concatenation of the step layer, the lazy
``LazyIterData`` decode path, and the ``auto`` kernel selection
heuristic.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    AUTO_KERNEL_MAX_PAIRS,
    AUTO_KERNEL_MIN_ROWS,
    FAMILY_STAIRCASE,
    FAMILY_STANDOFF,
    KERNEL_AUTO,
    KERNEL_LL,
    KERNEL_VECTORIZED,
    KERNELS,
)
from repro.core import IterContext, RegionTable, StandoffOp, standoff_step
from repro.core.kernels_vec import kernel_join, vec_join
from repro.core.mergejoin_ll import ll_join
from repro.core.region_index import RegionIndex
from repro.relational import (
    ColumnarResult,
    ColumnarStepResult,
    IterSeq,
    LazyIterData,
    complement,
)
from repro.xquery import Database


def canonical(mapping):
    """The canonical form of a dict-shaped result: sorted unique ids."""
    return {it: sorted(set(ids)) for it, ids in mapping.items()}


# ----------------------------------------------------------------------
# ColumnarResult <-> dict round-trip
# ----------------------------------------------------------------------

result_dicts = st.dictionaries(
    keys=st.integers(min_value=-50, max_value=10_000),
    values=st.lists(st.integers(min_value=0, max_value=500), max_size=8),
    max_size=12)


class TestRoundTrip:
    @given(result_dicts)
    @settings(max_examples=200, deadline=None)
    def test_dict_roundtrip_is_canonical(self, mapping):
        col = ColumnarResult.from_dict(mapping)
        assert col.to_dict() == canonical(mapping)
        assert col == canonical(mapping)

    @given(result_dicts)
    @settings(max_examples=100, deadline=None)
    def test_csr_invariants(self, mapping):
        col = ColumnarResult.from_dict(mapping)
        assert len(col.offsets) == len(col.iters) + 1
        assert col.offsets[0] == 0
        assert col.offsets[-1] == len(col.values)
        assert np.all(np.diff(col.offsets) >= 0)
        if len(col.iters) > 1:
            assert np.all(np.diff(col.iters) > 0)
        for i in range(len(col.iters)):
            seg = col.values[col.offsets[i]:col.offsets[i + 1]]
            if len(seg) > 1:
                assert np.all(np.diff(seg) > 0)

    def test_empty_iterations_survive(self):
        mapping = {3: [], 1: [5, 2], 7: []}
        col = ColumnarResult.from_dict(mapping)
        assert col.to_dict() == {1: [2, 5], 3: [], 7: []}
        assert col[3] == []
        assert 7 in col

    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 60)),
                    max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_from_pairs_matches_grouping(self, pairs):
        """Unsorted, duplicated pairs canonicalize like dict grouping."""
        random.Random(0).shuffle(pairs)
        iters = np.asarray([p[0] for p in pairs], np.int64)
        vals = np.asarray([p[1] for p in pairs], np.int64)
        col = ColumnarResult.from_pairs(iters, vals)
        grouped = {}
        for it, v in pairs:
            grouped.setdefault(it, set()).add(v)
        assert col.to_dict() == {it: sorted(vs)
                                 for it, vs in grouped.items()}

    def test_from_pairs_flags(self):
        iters = np.asarray([0, 0, 1], np.int64)
        vals = np.asarray([2, 5, 1], np.int64)
        fast = ColumnarResult.from_pairs(iters, vals, presorted=True,
                                         unique=True)
        assert fast.to_dict() == {0: [2, 5], 1: [1]}


class TestMappingAdapter:
    def make(self):
        return ColumnarResult.from_dict({0: [3, 1], 2: [], 5: [9]})

    def test_mapping_protocol(self):
        col = self.make()
        assert len(col) == 3
        assert list(col) == [0, 2, 5]
        assert col[0] == [1, 3]
        assert col.get(2) == []
        assert col.get(1, "missing") == "missing"
        assert 5 in col and 4 not in col
        with pytest.raises(KeyError):
            col[4]
        assert dict(col.items()) == {0: [1, 3], 2: [], 5: [9]}

    def test_decode_is_cached(self):
        col = self.make()
        assert col[0] is col[0]

    def test_equality(self):
        col = self.make()
        assert col == {0: [1, 3], 2: [], 5: [9]}
        assert col != {0: [1, 3], 5: [9]}          # empty slice matters
        assert col == ColumnarResult.from_dict({0: [1, 3], 2: [], 5: [9]})
        assert col != ColumnarResult.from_dict({0: [1, 3], 5: [9]})
        assert col != 17
        assert ColumnarResult.empty() == {}

    def test_columnar_accessors(self):
        col = self.make()
        assert col.n_values == 3
        assert col.iterations() == [0, 2, 5]
        assert col.values_for(0).tolist() == [1, 3]
        assert col.slice_of(5) == (2, 3)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(self.make())


# ----------------------------------------------------------------------
# the shared complement helper
# ----------------------------------------------------------------------

def brute_complement(selected, iterations, universe):
    return {it: [x for x in universe if x not in set(selected.get(it, []))]
            for it in iterations}


class TestComplement:
    @given(result_dicts, st.lists(st.integers(0, 500), max_size=20),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, selected, universe, tiny_budget):
        selected = canonical(selected)
        universe = sorted(set(universe))
        iterations = sorted(set(selected) | {0, 1})
        # selected ids must come from the universe (join invariant)
        selected = {it: [x for x in ids if x in set(universe)]
                    for it, ids in selected.items()}
        budget = 1 if tiny_budget else 32_000_000
        got = complement(selected, iterations,
                         np.asarray(universe, np.int64), budget=budget)
        assert got.to_dict() == brute_complement(selected, iterations,
                                                 universe)

    def test_columnar_selected_input(self):
        selected = ColumnarResult.from_dict({0: [1, 3], 2: [5]})
        universe = np.asarray([1, 3, 5], np.int64)
        got = complement(selected, [0, 1, 2], universe)
        assert got == {0: [5], 1: [1, 3, 5], 2: [1, 3]}

    def test_empty_universe_and_iterations(self):
        assert complement({}, [], np.empty(0, np.int64)) == {}
        assert complement({}, [4], np.empty(0, np.int64)) == {4: []}

    def test_budget_fallback_equivalence(self):
        rng = random.Random(3)
        universe = np.asarray(sorted(rng.sample(range(1000), 80)), np.int64)
        selected = {it: sorted(rng.sample(universe.tolist(), 10))
                    for it in range(15)}
        full = complement(selected, range(20), universe)
        tiny = complement(selected, range(20), universe, budget=1)
        assert full == tiny

    def test_ll_and_vec_rejects_share_it(self):
        """Both reject families produce complement-shaped results."""
        ctx = IterContext.from_rows([(0, 1, 0, 10), (1, 2, 50, 60)])
        cand = RegionTable.from_rows([(2, 3, 7), (55, 58, 8), (90, 95, 9)])
        vec = vec_join(StandoffOp.REJECT_NARROW, ctx, cand)
        ll = ll_join(StandoffOp.REJECT_NARROW, ctx, cand)
        assert isinstance(vec, ColumnarResult)
        assert vec.to_dict() == ll == {0: [8, 9], 1: [7, 9]}


# ----------------------------------------------------------------------
# per-fragment columnar concatenation
# ----------------------------------------------------------------------

class TestStepConcatenation:
    def test_mixed_dict_and_columnar_parts(self):
        parts = [(7, ColumnarResult.from_dict({0: [2, 4], 1: []})),
                 (3, {0: [1], 2: [9]})]
        merged = ColumnarStepResult.from_fragments(parts)
        # fragment order is the given order (7 before 3), ids ascending
        # within each fragment; empty iteration 1 survives.
        assert merged == {0: [(7, 2), (7, 4), (3, 1)], 1: [], 2: [(3, 9)]}
        assert merged.n_pairs == 4
        assert merged.iterations() == [0, 1, 2]
        frags, vals = merged.segment(0)
        assert frags.tolist() == [7, 7, 3]
        assert vals.tolist() == [2, 4, 1]

    def test_empty(self):
        assert ColumnarStepResult.from_fragments([]) == {}
        assert ColumnarStepResult.from_fragments([(1, {})]) == {}

    def test_standoff_step_fragment_rank(self):
        index = RegionIndex.build([(1, 0, 100), (2, 10, 20)])
        indexes = {101: index, 102: index}
        context = [(0, 101, 1), (0, 102, 1)]
        default = standoff_step(StandoffOp.SELECT_NARROW, context, indexes)
        assert isinstance(default, ColumnarStepResult)
        assert default[0] == [(101, 1), (101, 2), (102, 1), (102, 2)]
        ranked = standoff_step(StandoffOp.SELECT_NARROW, context, indexes,
                               fragment_rank={101: 1, 102: 0})
        assert ranked[0] == [(102, 1), (102, 2), (101, 1), (101, 2)]


# ----------------------------------------------------------------------
# lazy decode path
# ----------------------------------------------------------------------

class TestLazyIterData:
    def test_decodes_only_accessed_iterations(self):
        decoded = []

        def decode(it):
            decoded.append(it)
            return [it * 10]

        lazy = LazyIterData([1, 2, 3], decode)
        assert lazy[2] == [20]
        assert decoded == [2]
        assert lazy[2] == [20]          # cached
        assert decoded == [2]
        assert len(lazy) == 3 and list(lazy) == [1, 2, 3]
        with pytest.raises(KeyError):
            lazy[9]
        assert lazy.get(9) is None

    def test_restrict_shares_cache_and_stays_lazy(self):
        decoded = []

        def decode(it):
            decoded.append(it)
            return [it]

        seq = IterSeq(LazyIterData([1, 2, 3, 4], decode))
        live = seq.restrict([2, 4])
        assert isinstance(live.data, LazyIterData)
        assert decoded == []
        assert live.items_for(4) == [4]
        assert seq.items_for(4) == [4]  # decoded once, shared cache
        assert decoded == [4]
        assert live.items_for(1) == []  # restricted away

    def test_dict_backed_restrict(self):
        seq = IterSeq({1: ["a"], 2: ["b"]})
        assert seq.restrict([2]).data == {2: ["b"]}

    def test_restricted_view_hides_cached_dead_iterations(self):
        """The shared cache must not leak restricted-away iterations."""
        lazy = LazyIterData([1, 2], lambda it: [it])
        assert lazy[2] == [2]           # decode *before* restricting
        live = lazy.restrict({1})
        assert live.get(2) is None      # cached but filtered out
        with pytest.raises(KeyError):
            live[2]
        assert 2 not in live
        assert lazy[2] == [2]           # parent view unaffected

    def test_where_clause_filters_cached_join_results(self):
        """End-to-end FLWOR repro: a where clause that decodes every
        iteration (count) must not resurrect filtered iterations."""
        db = Database()
        db.add_document("d.xml", """
            <d><a nr="1" start="0" end="10"/>
               <a nr="2" start="20" end="30"/>
               <b start="1" end="2"/><b start="3" end="4"/>
               <b start="21" end="22"/></d>""")
        query = ('for $x in doc("d.xml")//a '
                 'let $y := $x/select-narrow::b '
                 'where count($y) > 1 return $y')
        ll = db.query(query, strategy="ll").serialize()
        assert ll == db.query(query, strategy="basic").serialize()
        assert '<b start="21"' not in ll


# ----------------------------------------------------------------------
# auto kernel selection
# ----------------------------------------------------------------------

class TestAutoKernel:
    def test_select_kernel_threshold(self):
        def select(name, **kwargs):
            return KERNELS.select(FAMILY_STANDOFF, name, **kwargs)

        assert select(KERNEL_AUTO, context_rows=1,
                      candidate_rows=1) == KERNEL_LL
        big = AUTO_KERNEL_MIN_ROWS
        assert select(KERNEL_AUTO, context_rows=big,
                      candidate_rows=0) == KERNEL_VECTORIZED
        assert select(KERNEL_AUTO, context_rows=big,
                      tracing=True) == KERNEL_LL
        assert select(KERNEL_LL, context_rows=10**9) == KERNEL_LL
        assert select(KERNEL_VECTORIZED) == KERNEL_VECTORIZED
        with pytest.raises(ValueError, match="unknown join kernel"):
            select("simd")

    def test_select_kernel_density(self):
        """The density-aware component: a probe-pair estimate past the
        pair budget sends auto back to the reference merge (for every
        family that registers a vectorized kernel)."""
        big = AUTO_KERNEL_MIN_ROWS
        for family in (FAMILY_STANDOFF, FAMILY_STAIRCASE):
            assert KERNELS.select(family, KERNEL_AUTO, context_rows=big,
                                  probe_pairs=AUTO_KERNEL_MAX_PAIRS + 1
                                  ) == KERNEL_LL
            assert KERNELS.select(family, KERNEL_AUTO, context_rows=big,
                                  probe_pairs=AUTO_KERNEL_MAX_PAIRS
                                  ) == KERNEL_VECTORIZED

    def test_registry_families(self):
        assert set(KERNELS.families()) == {FAMILY_STANDOFF,
                                           FAMILY_STAIRCASE}
        for family in KERNELS.families():
            assert set(KERNELS.names(family)) == {KERNEL_LL,
                                                  KERNEL_VECTORIZED,
                                                  KERNEL_AUTO}
        with pytest.raises(ValueError, match="unknown join family"):
            KERNELS.validate("quantum", KERNEL_LL)

    @pytest.mark.parametrize("op", list(StandoffOp))
    def test_kernel_join_auto_matches_reference(self, op):
        rng = random.Random(11)
        for n_cand in (8, 600):                   # below / above threshold
            rows = [(it, it * 100 + k, s, s + rng.randrange(40))
                    for it in range(6) for k in range(4)
                    for s in (rng.randrange(2_000),)]
            cand = [(s, s + rng.randrange(30), 50_000 + i)
                    for i in range(n_cand)
                    for s in (rng.randrange(2_000),)]
            ctx = IterContext.from_rows(rows)
            table = RegionTable.from_rows(cand)
            auto = kernel_join(op, ctx, table, kernel=KERNEL_AUTO)
            assert auto == ll_join(op, ctx, table)

    def test_engine_and_cli_accept_auto(self, tmp_path):
        db = Database()
        db.add_document("d.xml", '<d><a start="0" end="9"/>'
                                 '<b start="2" end="3"/></d>')
        for strategy in ("basic", "ll"):
            got = db.query('doc("d.xml")//a/select-narrow::b',
                           strategy=strategy, kernel="auto").serialize()
            ref = db.query('doc("d.xml")//a/select-narrow::b',
                           strategy=strategy, kernel="ll").serialize()
            assert got == ref

        import io
        from repro.cli import CliSession

        out = io.StringIO()
        session = CliSession(out=out)
        session.handle("\\kernel auto")
        assert session.options.kernel == "auto"
        assert "kernel = auto" in out.getvalue()


class TestSegmentPositionColumns:
    """``segment_positions`` / ``segment_lengths``: the per-segment
    ordinal and length columns the positional-predicate kernels read
    straight off a CSR ``offsets`` array."""

    def test_forward_positions(self):
        from repro.relational.columnar import segment_positions

        offsets = np.array([0, 3, 3, 5], dtype=np.int64)
        assert segment_positions(offsets).tolist() == [1, 2, 3, 1, 2]

    def test_reverse_positions(self):
        from repro.relational.columnar import segment_positions

        offsets = np.array([0, 3, 3, 5], dtype=np.int64)
        got = segment_positions(offsets, reverse=True)
        assert got.tolist() == [3, 2, 1, 2, 1]

    def test_segment_lengths(self):
        from repro.relational.columnar import segment_lengths

        offsets = np.array([0, 3, 3, 5], dtype=np.int64)
        assert segment_lengths(offsets).tolist() == [3, 3, 3, 2, 2]

    def test_empty_offsets(self):
        from repro.relational.columnar import (
            segment_lengths,
            segment_positions,
        )

        offsets = np.array([0], dtype=np.int64)
        assert segment_positions(offsets).size == 0
        assert segment_lengths(offsets).size == 0

    @given(st.lists(st.integers(min_value=0, max_value=7),
                    min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_matches_per_segment_enumeration(self, counts):
        from repro.relational.columnar import (
            segment_lengths,
            segment_positions,
        )

        offsets = np.concatenate(
            ([0], np.cumsum(counts))).astype(np.int64)
        forward, reverse, lengths = [], [], []
        for count in counts:
            forward.extend(range(1, count + 1))
            reverse.extend(range(count, 0, -1))
            lengths.extend([count] * count)
        assert segment_positions(offsets).tolist() == forward
        assert segment_positions(
            offsets, reverse=True).tolist() == reverse
        assert segment_lengths(offsets).tolist() == lengths
