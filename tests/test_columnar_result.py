"""Tests for the columnar (offsets + values) join-result backbone.

Covers the ``ColumnarResult`` <-> dict round-trip (empty iterations,
unsorted input, duplicates — property-based), the ``Mapping``
compatibility adapter, the shared anti-join ``complement`` helper, the
column form of node sequences (``NodeColumns``: column operations that decode
nothing, decoding per accessed iteration), and the choice between the
two join kernels.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import KERNEL_LL, SUPPORTED_KERNELS, check_kernel
from repro.errors import UnknownKernelError
from repro.core import IterContext, RegionTable, StandoffOp
from repro.core.kernels_vec import kernel_join, vec_join
from repro.core.mergejoin_ll import ll_join
from repro.relational import (
    ColumnarResult,
    IterSeq,
    NodeColumns,
    complement,
    expand_loop,
    loop_positions,
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
        assert col.iters.tolist() == [0, 2, 5]
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
# lazy decode path
# ----------------------------------------------------------------------

class _Shred:
    """A ``node_by_pre`` stand-in that records every decode."""

    def __init__(self):
        self.decoded = []

    def node_by_pre(self, pre):
        self.decoded.append(pre)
        return f"n{pre}"


def node_columns(mapping):
    shred = _Shred()
    return shred, NodeColumns(shred, ColumnarResult.from_dict(mapping))


class TestNodeColumns:
    def test_decodes_once_per_view_in_one_pass(self):
        shred, columns = node_columns({1: [10], 2: [20, 21], 3: [30]})
        assert 2 in columns and 9 not in columns
        assert shred.decoded == []                  # membership: no decode
        assert columns[2] == ["n20", "n21"]
        assert shred.decoded == [10, 20, 21, 30]    # one batched pass
        assert columns[1] == ["n10"] and columns[3] == ["n30"]
        assert shred.decoded == [10, 20, 21, 30]    # and only one
        assert len(columns) == 3 and list(columns) == [1, 2, 3]
        with pytest.raises(KeyError):
            columns[9]
        assert columns.get(9) is None

    def test_restrict_stays_columns(self):
        shred, columns = node_columns({1: [1], 2: [2], 3: [3], 4: [4]})
        live = IterSeq(columns).restrict([2, 4])
        assert isinstance(live.data, NodeColumns)
        assert shred.decoded == []
        assert live.items_for(4) == ["n4"]
        assert shred.decoded == [2, 4]              # the live rows only
        assert live.items_for(1) == []              # restricted away

    def test_dict_backed_restrict(self):
        seq = IterSeq({1: ["a"], 2: ["b"]})
        assert seq.restrict([2]).data == {2: ["b"]}

    def test_restricted_view_hides_dead_iterations(self):
        shred, columns = node_columns({1: [1], 2: [2]})
        assert columns[2] == ["n2"]                 # decode *before*
        live = columns.restrict([1])
        assert live.get(2) is None
        with pytest.raises(KeyError):
            live[2]
        assert 2 not in live
        assert columns[2] == ["n2"]                 # parent unaffected

    def test_column_operations_decode_nothing(self):
        shred, columns = node_columns({0: [3, 5], 2: [7], 5: [1, 2, 9]})
        its, pres = columns.rows([0, 1, 2, 5])
        assert its.tolist() == [0, 0, 2, 5, 5, 5]
        assert pres.tolist() == [3, 5, 7, 1, 2, 9]
        its, pres = columns.rows([2, 4])            # a sparse loop
        assert (its.tolist(), pres.tolist()) == ([2], [7])
        its, pres = columns.rows([0, 1, 2])         # a dense prefix
        assert (its.tolist(), pres.tolist()) == ([0, 0, 2], [3, 5, 7])
        its, pres = columns.rows([0, 5])            # non-adjacent segments
        assert (its.tolist(), pres.tolist()) == \
            ([0, 0, 5, 5, 5], [3, 5, 1, 2, 9])
        assert columns.rows([])[0].tolist() == []
        assert columns.lengths([0, 1, 5, 9]).tolist() == [2, 0, 3, 0]
        inner = columns.relift([0, 0, 1, 5, 9])
        assert inner.iters.tolist() == [0, 1, 3]
        assert inner.lengths([0, 1, 2, 3, 4]).tolist() == [2, 2, 0, 3, 0]
        its, pres = inner.rows([0, 1, 2, 3, 4])
        assert its.tolist() == [0, 0, 1, 1, 3, 3, 3]
        assert pres.tolist() == [3, 5, 3, 5, 1, 2, 9]
        assert shred.decoded == []

    def test_relift_shares_the_rows(self):
        """A relift gathers one segment index per inner iteration and
        shares the result: inner iterations of one outer iteration read
        one decoded list, however many there are."""
        shred, columns = node_columns({0: list(range(1000)), 1: [5000]})
        inner = columns.relift([0] * 500)
        assert inner.result is columns.result
        assert inner.segments.tolist() == [0] * 500
        assert inner[0] is inner[499]
        assert len(shred.decoded) == 1000           # one decode in all
        again = inner.relift(list(range(500))).restrict([7, 9])
        assert again.result is columns.result
        assert again[9] == inner[0] and 5000 not in shred.decoded

    def test_expand_loop_from_offsets(self):
        mapping = {0: [3, 5], 2: [7]}
        shred, columns = node_columns(mapping)
        loop, outer, var = expand_loop(IterSeq(columns), [0, 1, 2])
        assert (loop, outer) == ([0, 1, 2], [0, 0, 2])
        assert isinstance(var.data, NodeColumns)
        pos = loop_positions(outer)
        assert [pos.items_for(q) for q in loop] == [[1], [2], [1]]
        assert shred.decoded == []
        # the same binding as the dict form's
        decoded = {it: [f"n{pre}" for pre in pres]
                   for it, pres in mapping.items()}
        *_, want = expand_loop(IterSeq(decoded), [0, 1, 2])
        assert [var.items_for(q) for q in loop] == \
            [want.items_for(q) for q in loop]

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
# kernel choice
# ----------------------------------------------------------------------

class TestKernelChoice:
    def test_two_kernels_and_no_auto(self):
        assert SUPPORTED_KERNELS == ("ll", "vectorized")
        for name in SUPPORTED_KERNELS:
            assert check_kernel(name) == name
        with pytest.raises(UnknownKernelError,
                           match=r"unknown join kernel 'auto'; expected "
                                 r"one of \['ll', 'vectorized'\]"):
            check_kernel("auto")

    @pytest.mark.parametrize("op", list(StandoffOp))
    def test_kernel_join_default_matches_reference(self, op):
        rng = random.Random(11)
        for n_cand in (8, 600):
            rows = [(it, it * 100 + k, s, s + rng.randrange(40))
                    for it in range(6) for k in range(4)
                    for s in (rng.randrange(2_000),)]
            cand = [(s, s + rng.randrange(30), 50_000 + i)
                    for i in range(n_cand)
                    for s in (rng.randrange(2_000),)]
            ctx = IterContext.from_rows(rows)
            table = RegionTable.from_rows(cand)
            got = kernel_join(op, ctx, table)
            assert isinstance(got, ColumnarResult)
            assert got == ll_join(op, ctx, table)
            assert kernel_join(op, ctx, table, kernel=KERNEL_LL) == got

    def test_engine_and_cli_refuse_auto(self):
        db = Database()
        with pytest.raises(UnknownKernelError):
            db.query("1", kernel="auto")

        import io
        from repro.cli import CliSession

        out = io.StringIO()
        session = CliSession(out=out)
        session.handle("\\kernel auto")
        assert session.options.kernel == "vectorized"
        assert "error: unknown join kernel 'auto'" in out.getvalue()


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
