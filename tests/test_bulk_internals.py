"""White-box tests for the loop-lifted evaluator's machinery."""

import pytest

from repro.core.steps import Strategy
from repro.errors import UnsupportedFeatureError
from repro.xquery import Database, parse
from repro.xquery.bulk import BulkEnv, eval_bulk, evaluate_module_bulk
from repro.xquery.context import DynamicContext
from repro.xquery.parser import parse_expr
from repro.relational import IterSeq


def make_env(db: Database, loop, variables=None):
    ctx = DynamicContext(db.store, strategy=Strategy.LOOP_LIFTED)
    return BulkEnv(ctx, loop, variables or {})


@pytest.fixture
def db():
    database = Database()
    database.add_document("d.xml", """
        <s>
          <c id="1" start="0" end="10"/>
          <c id="2" start="20" end="30"/>
          <t start="1" end="2"/>
          <t start="25" end="26"/>
          <t start="50" end="60"/>
        </s>""")
    return database


class TestIterSeqResults:
    def test_literal_lifted_into_every_iteration(self, db):
        env = make_env(db, [4, 7, 9])
        seq = eval_bulk(parse_expr("42"), env)
        assert seq.items_for(4) == [42]
        assert seq.items_for(9) == [42]
        assert seq.items_for(5) == []

    def test_arithmetic_per_iteration(self, db):
        env = make_env(db, [1, 2],
                       {"x": IterSeq({1: [10], 2: [20]})})
        seq = eval_bulk(parse_expr("$x + 1"), env)
        assert seq.items_for(1) == [11]
        assert seq.items_for(2) == [21]

    def test_if_splits_loop(self, db):
        env = make_env(db, [1, 2, 3],
                       {"x": IterSeq({1: [1], 2: [2], 3: [3]})})
        seq = eval_bulk(parse_expr(
            'if ($x mod 2 = 0) then "even" else "odd"'), env)
        assert [seq.items_for(i)[0] for i in (1, 2, 3)] == \
            ["odd", "even", "odd"]

    def test_empty_iteration_stays_empty(self, db):
        env = make_env(db, [1, 2], {"x": IterSeq({1: [5]})})
        seq = eval_bulk(parse_expr("$x * 2"), env)
        assert seq.items_for(1) == [10]
        assert seq.items_for(2) == []


class TestSingleJoinCall:
    def test_nested_loops_still_one_join(self, db):
        """Even a doubly nested for-loop runs the StandOff step once."""
        ctx = DynamicContext(db.store, strategy=Strategy.LOOP_LIFTED)
        module = parse(
            'for $i in (1, 2) '
            'for $c in doc("d.xml")//c '
            'return count($c/select-narrow::t)')
        result = evaluate_module_bulk(module, ctx)
        assert result == [1, 1, 1, 1]
        assert ctx.standoff_join_calls == 1

    def test_constructor_content_stays_lifted(self, db):
        ctx = DynamicContext(db.store, strategy=Strategy.LOOP_LIFTED)
        module = parse(
            'for $c in doc("d.xml")//c '
            'return <hits n="{count($c/select-narrow::t)}"/>')
        result = evaluate_module_bulk(module, ctx)
        assert [el.get_attribute("n") for el in result] == ["1", "1"]
        assert ctx.standoff_join_calls == 1

    def test_where_clause_filters_before_body_join(self, db):
        ctx = DynamicContext(db.store, strategy=Strategy.LOOP_LIFTED)
        module = parse(
            'for $c in doc("d.xml")//c '
            'where $c/@id = "1" '
            'return count($c/select-narrow::t)')
        assert evaluate_module_bulk(module, ctx) == [1]


class TestUnsupported:
    def test_udf_raises(self, db):
        ctx = DynamicContext(db.store, strategy=Strategy.LOOP_LIFTED)
        module = parse("declare function f($x) { $x }; f(1)")
        with pytest.raises(UnsupportedFeatureError):
            evaluate_module_bulk(module, ctx)

    def test_primary_midpath_raises(self, db):
        ctx = DynamicContext(db.store, strategy=Strategy.LOOP_LIFTED)
        module = parse('for $x in (1) return doc("d.xml")/s/count(.)')
        with pytest.raises(UnsupportedFeatureError):
            evaluate_module_bulk(module, ctx)


class TestLLStaircaseFastPath:
    def test_descendant_on_stored_doc(self, db):
        ctx = DynamicContext(db.store, strategy=Strategy.LOOP_LIFTED)
        module = parse('for $i in (1, 2) '
                       'return count(doc("d.xml")/s/descendant::t)')
        assert evaluate_module_bulk(module, ctx) == [3, 3]

    def test_descendant_or_self_includes_self(self, db):
        ctx = DynamicContext(db.store, strategy=Strategy.LOOP_LIFTED)
        module = parse(
            'count(doc("d.xml")//c[1]/descendant-or-self::c)')
        assert evaluate_module_bulk(module, ctx) == [1]

    def test_descendant_on_constructed_fragment_falls_back(self, db):
        ctx = DynamicContext(db.store, strategy=Strategy.LOOP_LIFTED)
        module = parse('let $f := <a><b/><b/></a> '
                       'return count($f/descendant::b)')
        assert evaluate_module_bulk(module, ctx) == [2]

    def test_descendant_with_predicate_falls_back(self, db):
        ctx = DynamicContext(db.store, strategy=Strategy.LOOP_LIFTED)
        module = parse(
            'count(doc("d.xml")/s/descendant::t[@start="25"])')
        assert evaluate_module_bulk(module, ctx) == [1]


class TestConditional:
    def test_if_scales_linearly_with_the_loop(self):
        """``_bulk_if`` rebuilt ``set(true_loop)`` once per iteration:
        quadratic in the loop (N = 8000 took 720 ms, N = 32000 eleven
        seconds).  Four times the iterations may cost at most eight
        times as long — linear is 4, the old code was 16."""
        import time

        db = Database()

        def run(n: int) -> float:
            query = (f"count(for $x in 1 to {n} return "
                     "if ($x mod 2 = 0) then 1 else 0)")
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                assert db.query(query, strategy="ll") == [n]
                best = min(best, time.perf_counter() - start)
            return best

        assert db.query("sum(for $x in 1 to 8000 return "
                        "if ($x mod 2 = 0) then 1 else 0)",
                        strategy="ll") == [4000]
        assert run(32000) < 8 * run(8000)


@pytest.mark.parametrize("query", [
    # kernel join, then per-item filter
    'for $n in (1, 2) return doc("d.xml")//c[@id = $n]/@start',
    # DOM walk (a positional predicate that does not compile)
    'for $n in (1, 2) return doc("d.xml")/s/t[position() = $n]/@start',
    'for $n in (2, 1) return doc("d.xml")/s/*[$n]/@start',
    # filter expression, StandOff step, prolog and let variables
    'for $n in (1, 2) return (doc("d.xml")//t)[@start > $n * 10]/@end',
    'for $n in (1, 2) return '
    'doc("d.xml")//c[@id = $n]/select-narrow::t[@start >= $n]/@start',
    'declare variable $lo := 20; let $hi := 30 '
    'return doc("d.xml")//t[@start > $lo][@end < $hi]/@start',
])
def test_predicates_see_loop_lifted_variables(db, query):
    """Predicates run per item on the DOM side; ``for``/``let``/prolog
    variables used to be undefined there (``err:XPDY0002``) because
    only external variables live in the dynamic context."""
    want = db.query(query, strategy="basic").serialize()
    assert want
    assert db.query(query, strategy="ll").serialize() == want

