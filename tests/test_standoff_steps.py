"""Tests for step-level execution: the one-fragment join of
core/steps.py (strategies, pushdown) directly on the core API, and the
per-fragment split of xquery/standoff.py through the engine."""

import numpy as np
import pytest

from repro.core import RegionIndex, StandoffOp, Strategy, standoff_step
from repro.core.mergejoin_ll import IterContext
from repro.relational.columnar import ColumnarResult
from repro.xquery import Database


@pytest.fixture
def two_fragments():
    """Two fragments with deliberately similar region layouts."""
    frag1 = RegionIndex.build([
        (1, 0, 100),     # container
        (2, 10, 20),     # inside
        (3, 150, 160),   # outside
    ])
    frag2 = RegionIndex.build([
        (1, 0, 100),
        (2, 10, 20),
        (9, 40, 50),
    ])
    return frag1, frag2


ALL_STRATEGIES = [Strategy.UDF, Strategy.BASIC, Strategy.LOOP_LIFTED]


def columns(rows):
    """``(iter, pre)`` rows as the step's iteration-sorted columns."""
    rows = sorted(rows)
    return (np.asarray([it for it, _pre in rows], dtype=np.int64),
            np.asarray([pre for _it, pre in rows], dtype=np.int64))


class TestStrategiesAgree:
    @pytest.mark.parametrize("op", list(StandoffOp))
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_single_fragment(self, two_fragments, op, strategy):
        index = two_fragments[0]
        context = columns([(0, 1)])
        reference = standoff_step(op, index, context,
                                  strategy=Strategy.UDF)
        got = standoff_step(op, index, context, strategy=strategy)
        assert isinstance(got, ColumnarResult)
        assert got == reference

    @pytest.mark.parametrize("op", list(StandoffOp))
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_multi_fragment_multi_iter(self, two_fragments, op, strategy):
        contexts = ([(0, 1), (2, 3)], [(0, 1), (1, 2), (1, 9)])
        for index, rows in zip(two_fragments, contexts):
            reference = standoff_step(op, index, columns(rows),
                                      strategy=Strategy.UDF)
            got = standoff_step(op, index, columns(rows),
                                strategy=strategy)
            assert got == reference


class TestFragmentSemantics:
    def test_matches_only_same_fragment(self, two_fragments):
        result = standoff_step(StandoffOp.SELECT_NARROW, two_fragments[0],
                               columns([(0, 1)]))
        # fragment 2's node 9 (also inside [0,100]) cannot appear
        assert result == {0: [1, 2]}

    def test_results_in_fragment_then_id_order(self, two_fragments):
        result = standoff_step(StandoffOp.SELECT_NARROW, two_fragments[1],
                               columns([(0, 2), (0, 1)]))
        assert result[0] == [1, 2, 9]

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_empty_context(self, two_fragments, strategy):
        empty = np.empty(0, dtype=np.int64)
        for op in StandoffOp:
            assert standoff_step(op, two_fragments[0], (empty, empty),
                                 strategy=strategy) == {}

    def test_context_node_without_region_ignored(self, two_fragments):
        result = standoff_step(StandoffOp.SELECT_NARROW, two_fragments[0],
                               columns([(0, 777)]))
        assert result == {}


class TestPushdown:
    def test_candidate_restriction(self, two_fragments):
        result = standoff_step(
            StandoffOp.SELECT_NARROW, two_fragments[0], columns([(0, 1)]),
            np.asarray([2]))
        assert result == {0: [2]}

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_empty_candidates(self, two_fragments, strategy):
        none = np.empty(0, dtype=np.int64)
        context = columns([(0, 1)])
        assert standoff_step(StandoffOp.SELECT_NARROW, two_fragments[0],
                             context, none, strategy=strategy).n_values == 0
        assert standoff_step(StandoffOp.REJECT_NARROW, two_fragments[0],
                             context, none, strategy=strategy) == {0: []}

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_pushdown_equals_postfilter(self, two_fragments, strategy):
        wanted = {2, 9}
        for index in two_fragments:
            pushed = standoff_step(
                StandoffOp.SELECT_WIDE, index, columns([(0, 1)]),
                np.asarray([2, 9]), strategy=strategy)
            full = standoff_step(StandoffOp.SELECT_WIDE, index,
                                 columns([(0, 1)]), strategy=strategy)
            filtered = {it: [n for n in ids if n in wanted]
                        for it, ids in full.items()}
            assert pushed == filtered


class TestStrategyParsing:
    def test_from_name(self):
        assert Strategy.from_name("udf") is Strategy.UDF
        assert Strategy.from_name("ll") is Strategy.LOOP_LIFTED
        assert Strategy.from_name("LOOP_LIFTED") is Strategy.LOOP_LIFTED

    def test_unknown(self):
        with pytest.raises(ValueError):
            Strategy.from_name("quantum")


# ----------------------------------------------------------------------
# the per-fragment split, through the engine
# ----------------------------------------------------------------------

STRATEGY_NAMES = ["udf", "basic", "ll"]

#: A prefixed and an unprefixed ``w`` under one ``s``.
PREFIXED = ("<r><s start='0' end='10'>"
            "<x:w xmlns:x='urn:x' start='1' end='2'>a</x:w>"
            "<w start='3' end='4'>b</w></s></r>")

CONSTRUCTED = ("let $c := <s start='0' end='50'>"
               "<w start='1' end='2'>c</w></s> "
               "let $e := <s start='0' end='50'>"
               "<w start='1' end='2'>e</w><w start='3' end='4'>f</w></s> ")


@pytest.fixture(scope="module")
def prefixed_db():
    db = Database()
    db.add_document("d.xml", PREFIXED)
    return db


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_name_test_pushdown_matches_local_names(prefixed_db, strategy):
    """A pushed-down name test selects what the node test accepts:
    ``w`` matches ``x:w`` by its local name, like the tree step."""
    query = "doc('d.xml')//s/select-narrow::w"
    tree = prefixed_db.query("doc('d.xml')/r/s/w").serialize()
    answers = {policy: prefixed_db.query(query, strategy=strategy,
                                         pushdown=policy).serialize()
               for policy in ("always", "auto", "never")}
    assert set(answers.values()) == {tree}
    assert ">a</x:w>" in tree and ">b</w>" in tree


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
@pytest.mark.parametrize("context", [
    "(doc('d.xml')//s, $c)", "($c, doc('d.xml')//s)",
    "($e, $c)", "($c, $e)"])
def test_cross_fragment_order_is_document_order(prefixed_db, strategy,
                                                context):
    """A step over several fragments orders its result as every other
    step and ``|`` do: constructed fragments before stored documents."""
    step = f"{CONSTRUCTED}return {context}/select-narrow::w"
    union = f"{CONSTRUCTED}return ({context}/select-narrow::w) | ()"
    got = prefixed_db.query(step, strategy=strategy).serialize()
    assert got == prefixed_db.query(union, strategy=strategy).serialize()
    if "doc(" in context:
        assert got.index(">c</w>") < got.index(">a</x:w>")


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
@pytest.mark.parametrize("op", ["select-narrow", "reject-narrow",
                                "select-wide", "reject-wide"])
def test_duplicate_context(prefixed_db, strategy, op):
    query = f"let $s := doc('d.xml')//s return ($s, $s)/{op}::w"
    want = prefixed_db.query(query, strategy="basic").serialize()
    assert prefixed_db.query(query, strategy=strategy).serialize() == want


def test_one_fragment_ll_step_stays_columnar(prefixed_db, monkeypatch):
    """The ``ll`` step builds its join context from arrays and keeps
    the kernel's columnar result: no row tuples, no dict round trip."""

    def boom(*_args, **_kwargs):  # pragma: no cover - must not run
        raise AssertionError("row-shaped conversion on the ll step")

    queries = ("doc('d.xml')//s/select-narrow::w",
               "for $s in doc('d.xml')//s return $s/reject-wide::w")
    want = [prefixed_db.query(query, strategy="basic").serialize()
            for query in queries]
    monkeypatch.setattr(IterContext, "from_rows", classmethod(boom))
    monkeypatch.setattr(ColumnarResult, "from_dict", classmethod(boom))
    got = [prefixed_db.query(query, strategy="ll",
                             kernel="vectorized").serialize()
           for query in queries]
    assert got == want
