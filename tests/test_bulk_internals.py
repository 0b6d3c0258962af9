"""White-box tests for the loop-lifted evaluator's machinery."""

import pytest

from repro.config import ExecOptions
from repro.errors import ReproError, UnsupportedFeatureError
from repro.xquery import Database, parse
from repro.xquery.bulk import (
    BulkEnv,
    eval_bulk,
    evaluate_module_bulk,
    step_route,
)
from repro.xquery.context import DynamicContext
from repro.xquery.parser import parse_expr
from repro.relational import IterSeq

LL = ExecOptions(strategy="ll")


def make_env(db: Database, loop, variables=None):
    ctx = DynamicContext(db.store, options=LL)
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
        ctx = DynamicContext(db.store, options=LL)
        module = parse(
            'for $i in (1, 2) '
            'for $c in doc("d.xml")//c '
            'return count($c/select-narrow::t)')
        result = evaluate_module_bulk(module, ctx)
        assert result == [1, 1, 1, 1]
        assert ctx.standoff_join_calls == 1

    def test_constructor_content_stays_lifted(self, db):
        ctx = DynamicContext(db.store, options=LL)
        module = parse(
            'for $c in doc("d.xml")//c '
            'return <hits n="{count($c/select-narrow::t)}"/>')
        result = evaluate_module_bulk(module, ctx)
        assert [el.get_attribute("n") for el in result] == ["1", "1"]
        assert ctx.standoff_join_calls == 1

    def test_where_clause_filters_before_body_join(self, db):
        ctx = DynamicContext(db.store, options=LL)
        module = parse(
            'for $c in doc("d.xml")//c '
            'where $c/@id = "1" '
            'return count($c/select-narrow::t)')
        assert evaluate_module_bulk(module, ctx) == [1]


class TestUnsupported:
    def test_udf_raises(self, db):
        ctx = DynamicContext(db.store, options=LL)
        module = parse("declare function f($x) { $x }; f(1)")
        with pytest.raises(UnsupportedFeatureError):
            evaluate_module_bulk(module, ctx)

    def test_primary_midpath_raises(self, db):
        ctx = DynamicContext(db.store, options=LL)
        module = parse('for $x in (1) return doc("d.xml")/s/count(.)')
        with pytest.raises(UnsupportedFeatureError):
            evaluate_module_bulk(module, ctx)


class TestLLStaircaseFastPath:
    def test_descendant_on_stored_doc(self, db):
        ctx = DynamicContext(db.store, options=LL)
        module = parse('for $i in (1, 2) '
                       'return count(doc("d.xml")/s/descendant::t)')
        assert evaluate_module_bulk(module, ctx) == [3, 3]

    def test_descendant_or_self_includes_self(self, db):
        ctx = DynamicContext(db.store, options=LL)
        module = parse(
            'count(doc("d.xml")//c[1]/descendant-or-self::c)')
        assert evaluate_module_bulk(module, ctx) == [1]

    def test_descendant_on_constructed_fragment_falls_back(self, db):
        ctx = DynamicContext(db.store, options=LL)
        module = parse('let $f := <a><b/><b/></a> '
                       'return count($f/descendant::b)')
        assert evaluate_module_bulk(module, ctx) == [2]

    def test_descendant_with_predicate_takes_the_column_route(self, db):
        ctx = DynamicContext(db.store, options=LL)
        module = parse(
            'count(doc("d.xml")/s/descendant::t[@start="25"])')
        (path,) = module.body.args
        route, terms = step_route(path.steps[-1])
        assert route == "columns"
        assert terms == [("compare", "start", "=", "25", False)]
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


# ----------------------------------------------------------------------
# the column route: value predicates decided on attribute columns
# ----------------------------------------------------------------------

#: Twelve annotated ``a`` elements, each holding one annotated ``b``;
#: ``a`` carries a numeric ``i`` and every third one a prefixed ``p:j``.
COLUMN_XML = '<r xmlns:p="urn:p">' + "".join(
    f'<a i="{k}" start="{10 * k}" end="{10 * k + 9}"'
    + (f' p:j="{k}"' if k % 3 == 0 else "")
    + f'><b i="{k % 3}" start="{10 * k + 1}" end="{10 * k + 2}"/></a>'
    for k in range(12)) + "</r>"

#: Queries whose only decoded nodes are the survivors of the last step.
COMPILED = [
    'doc("c.xml")//a[@i = "3"]',
    'doc("c.xml")//a[@i >= 5][not(@j)]',
    'doc("c.xml")//a[@j lt 7 or @i eq "11"]',
    'doc("c.xml")//b[@i != 1]',
    'doc("c.xml")//*["2" > @i and @start]',
    'doc("c.xml")//a[@i = "99"]',
]


@pytest.fixture
def column_db():
    database = Database()
    database.add_document("c.xml", COLUMN_XML)
    return database


def _spy_filter(monkeypatch):
    """Record every per-item predicate filter call (bulk imports the
    evaluator's function by name, so both references are patched)."""
    from repro.xquery import bulk, evaluator

    calls = []
    original = evaluator._filter_by_predicate

    def spy(items, predicate, ctx):
        calls.append(len(items))
        return original(items, predicate, ctx)

    monkeypatch.setattr(evaluator, "_filter_by_predicate", spy)
    monkeypatch.setattr(bulk, "_filter_by_predicate", spy)
    return calls


def _spy_decode(monkeypatch, cls):
    decoded = []
    original = cls.node_by_pre

    def spy(self, pre):
        decoded.append(int(pre))
        return original(self, pre)

    monkeypatch.setattr(cls, "node_by_pre", spy)
    return decoded


@pytest.mark.parametrize("query", COMPILED)
def test_column_route_decodes_only_survivors(column_db, monkeypatch,
                                             query):
    from repro.xmldb.shred import ShreddedDocument

    want = column_db.query(query, strategy="basic")
    calls = _spy_filter(monkeypatch)
    decoded = _spy_decode(monkeypatch, ShreddedDocument)
    got = column_db.query(query, strategy="ll")
    assert got.serialize() == want.serialize()
    assert calls == []
    assert sorted(decoded) == sorted(node.pre for node in got)


def test_standoff_column_route_decodes_only_survivors(column_db,
                                                      monkeypatch):
    from repro.xmldb.shred import ShreddedDocument
    from repro.xquery.standoff import _FragmentInfo

    query = 'doc("c.xml")//a[@i = "3"]/select-narrow::b[@i = "0"]'
    assert "StandOff merge join, column filter" in column_db.explain(query)
    want = column_db.query(query, strategy="basic")
    calls = _spy_filter(monkeypatch)
    steps = _spy_decode(monkeypatch, ShreddedDocument)
    joins = _spy_decode(monkeypatch, _FragmentInfo)
    got = column_db.query(query, strategy="ll")
    assert got.serialize() == want.serialize() != ""
    assert calls == []
    assert len(steps) == 1                      # the one a[@i = "3"]
    assert joins == [node.pre for node in got]  # the one b under it


OPERATORS = ("=", "!=", "<", "<=", ">", ">=",
             "eq", "ne", "lt", "le", "gt", "ge")


@pytest.mark.parametrize("op", OPERATORS)
def test_every_operator_on_the_columns(monkeypatch, op):
    """Each operator against literals below, between, on and above the
    distinct values, on either side — with no interpreter call."""
    db = Database()
    db.add_document("o.xml", '<r xmlns:p="urn:p"><a i="1"/><a i="2"/>'
                             '<a i="10"/><a i=" 2"/><a p:i="3"/><a/>'
                             '<a i="2"/></r>')
    literals = ('"0"', '"1"', '"15"', '"2"', '"3"', '"9"',
                "0", "1", "2", "2.5", "10", "11")
    queries = [f'doc("o.xml")/r/a[@i {op} {literal}]'
               for literal in literals]
    queries += [f'doc("o.xml")/r/a[{literal} {op} @i]'
                for literal in literals]
    want = [db.query(query, strategy="basic").serialize()
            for query in queries]
    calls = _spy_filter(monkeypatch)
    got = [db.query(query, strategy="ll").serialize() for query in queries]
    assert got == want
    assert calls == []


@pytest.mark.parametrize("query,xml,code", [
    # the cast of "x" fails: err:FORG0001
    ('doc("e.xml")//a[@i >= 2]', '<r><a i="1"/><a i="x"/></r>',
     "err:FORG0001"),
    # a value comparison over two matching attributes: err:XPTY0004
    ('doc("e.xml")//a[@i eq "1"]',
     '<r xmlns:p="urn:p"><a i="1" p:i="2"/></r>', "err:XPTY0004"),
])
def test_column_route_hands_raising_compares_to_the_interpreter(
        monkeypatch, query, xml, code):
    from repro.errors import XQueryError

    db = Database()
    db.add_document("e.xml", xml)
    with pytest.raises(XQueryError) as oracle:
        db.query(query, strategy="basic")
    calls = _spy_filter(monkeypatch)
    with pytest.raises(XQueryError) as ll:
        db.query(query, strategy="ll")
    assert calls, "the per-item filter must take over"
    assert ll.value.code == oracle.value.code == code


def test_column_route_respects_short_circuits():
    """The interpreter never casts "x" here (``@i = "x"`` fails first,
    or ``p:i="1"`` already satisfies the existential compare), so
    neither may the column route raise."""
    db = Database()
    db.add_document("e.xml", '<r xmlns:p="urn:p"><a p:i="1" i="x"/>'
                             '<a i="3"/></r>')
    for query in ('doc("e.xml")//a[not(@i = "x") and @i >= 2]',
                  'doc("e.xml")//a[@i != 9]'):
        want = db.query(query, strategy="basic").serialize()
        assert db.query(query, strategy="ll").serialize() == want


class TestAttributeColumn:
    def test_dictionary_encoding(self, column_db):
        shredded = column_db.document("c.xml").shredded
        column = shredded.attribute_column("i")
        values = [column.distinct[code] for code in column.codes.tolist()]
        assert column.distinct == sorted(set(values))
        document = column_db.document("c.xml").document
        want = [(attr.parent.pre, attr.value)
                for node in document.descendants()
                for attr in getattr(node, "attributes", ())
                if attr.local_name == "i"]
        assert list(zip(column.owners.tolist(), values)) == want
        assert not column.owners.flags.writeable
        assert not column.codes.flags.writeable

    def test_prefixed_names_match_by_local_name(self, column_db):
        shredded = column_db.document("c.xml").shredded
        assert len(shredded.attribute_column("j").owners) == 4
        assert len(shredded.attribute_column("nope").owners) == 0

    def test_numbers_mark_failed_casts(self):
        from repro.xquery.values import to_number

        db = Database()
        db.add_document("n.xml", '<r><a i=" 7 "/><a i="x"/><a i="NaN"/>'
                                 '<a i="1e3"/></r>')
        column = db.document("n.xml").shredded.attribute_column("i")

        def cast(text):
            try:
                return to_number(text)
            except ReproError:
                return None

        numbers, failed = column.numbers(cast)
        assert column.numbers(cast)[0] is numbers     # built once
        by_text = dict(zip(column.distinct,
                           zip(numbers.tolist(), failed.tolist())))
        assert by_text[" 7 "] == (7.0, False)
        assert by_text["1e3"] == (1000.0, False)
        assert by_text["x"][1] is True
        assert by_text["NaN"][1] is False

    def test_column_cached_and_touch_drops(self, column_db):
        stored = column_db.document("c.xml")
        shredded = stored.shredded
        column = shredded.attribute_column("i")
        assert shredded.attribute_column("i") is column
        column_db.store.touch("c.xml")
        assert stored.shredded.attribute_column("i") is not column

    def test_store_backed_heap(self, tmp_path):
        from repro import storage
        from repro.xmldb.shred import StringHeap

        db = Database()
        db.add_document("c.xml", COLUMN_XML)
        reopened = storage.open_store(
            storage.save_store(str(tmp_path / "c.repro"), db))
        shredded = reopened.document("c.xml").shredded
        assert isinstance(shredded.values, StringHeap)
        mine = shredded.attribute_column("i")
        theirs = db.document("c.xml").shredded.attribute_column("i")
        assert mine.distinct == theirs.distinct
        assert mine.codes.tolist() == theirs.codes.tolist()
        assert mine.owners.tolist() == theirs.owners.tolist()
        for query in COMPILED:
            assert reopened.query(query, strategy="ll").serialize() == \
                db.query(query, strategy="basic").serialize(), query
