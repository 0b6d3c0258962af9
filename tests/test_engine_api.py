"""Tests for the Database facade and QueryResult."""

import pytest

from repro import Database
from repro.errors import ReproError
from repro.xquery.engine import QueryResult


@pytest.fixture
def db():
    database = Database()
    database.add_document("a.xml", '<a x="1"><b start="1" end="2"/></a>')
    return database


class TestDatabase:
    def test_contains_and_document(self, db):
        assert "a.xml" in db
        assert "b.xml" not in db
        assert db.document("a.xml").uri == "a.xml"

    def test_remove_document(self, db):
        db.remove_document("a.xml")
        assert "a.xml" not in db

    def test_unknown_strategy(self, db):
        with pytest.raises(ValueError):
            db.query("1", strategy="warp9")

    def test_unknown_pushdown(self, db):
        with pytest.raises(ValueError):
            db.query("1", pushdown="sometimes")

    def test_context_uri_enables_relative_paths(self, db):
        result = db.query("count(//b)", context_uri="a.xml")
        assert result == [1]
        result = db.query("/a/@x", context_uri="a.xml")
        assert result.atomized() == ["1"]

    def test_context_uri_bulk(self, db):
        result = db.query("count(//b)", context_uri="a.xml",
                          strategy="ll")
        assert result == [1]

    def test_absolute_path_without_context_fails(self, db):
        from repro.errors import XQueryDynamicError

        with pytest.raises(XQueryDynamicError):
            db.query("//b")

    def test_variables_kwarg(self, db):
        assert db.query("$x + $y", variables={"x": 1, "y": 2}) == [3]
        assert db.query("count($xs)",
                        variables={"xs": [1, 2, 3]}) == [3]

    def test_explain_renders_ast(self, db):
        assert db.explain("1 + 2") == "1 + 2"
        # The plan comes from the plan cache, not from a parse of its own.
        before = db.plan_cache.stats()["hits"]
        db.explain("1 + 2")
        if db.plan_cache.enabled:
            assert db.plan_cache.stats()["hits"] == before + 1

    def test_explain_shows_the_plan_ll_runs(self, db):
        lines = db.explain('doc("d")//a[@i="1"]/b[1]').splitlines()
        assert [line.split("  (: ")[0].strip() for line in lines] == [
            'doc("d")', 'descendant::a[attribute::i = "1"]', "child::b[1]"]
        assert "'//' fused" in lines[1]
        assert "Staircase join, column filter" in lines[1]
        assert "position masks" in lines[2]
        assert "descendant-or-self" not in "\n".join(lines)

        per_item = db.explain('doc("d")//a[@i = $v]')
        assert "Staircase join, then per-item filter" in per_item

        kept = db.explain('doc("d")//a[1]')
        assert "descendant-or-self::node()" in kept
        assert "child::a[1]" in kept and "fused" not in kept

        mixed = db.explain('for $x in doc("d")//a[@i and position() = 2] '
                           'return count($x/select-narrow::b[@i])')
        assert "child::a[attribute::i and (position() = 2)]" in mixed
        assert "Staircase join, then per-item position filter" in mixed
        assert "DOM walk" not in mixed
        assert "DOM walk" in db.explain('doc("d")//a/parent::*')
        assert "Staircase join, column filter, position masks" in \
            db.explain('doc("d")//a[@i = "1"][2]')
        assert "StandOff merge join, position masks" in db.explain(
            'doc("d")//a/select-narrow::b[1]')
        assert "StandOff merge join, column filter" in mixed
        assert "StandOff merge join, then per-item filter" in db.explain(
            'doc("d")//a/select-narrow::b[c = "x"]')
        assert "refuses" in db.explain(
            "declare function local:f($x) { $x//b }; local:f(1)")

    def test_lazy_database_export(self):
        import repro

        assert repro.Database is Database
        with pytest.raises(AttributeError):
            repro.does_not_exist


class TestQueryResult:
    def test_is_a_list(self, db):
        result = db.query("(1, 2)")
        assert isinstance(result, QueryResult)
        assert isinstance(result, list)
        assert result + [3] == [1, 2, 3]

    def test_serialize_mixed(self, db):
        result = db.query('(1, "x", <e/>)')
        assert result.serialize(sep=" ") == "1 x <e/>"

    def test_serialize_indent(self, db):
        result = db.query("<a><b><c/></b></a>")
        assert "\n  " in result.serialize(indent=True)

    def test_atomized(self, db):
        result = db.query('doc("a.xml")//b')
        assert result.atomized() == [""]

    def test_empty_serialize(self, db):
        assert db.query("()").serialize() == ""


class TestObservability:
    def test_standoff_join_call_counter(self, db):
        """The paper's basic-vs-ll difference is visible in join calls:
        the loop-lifted strategy issues one call per step, the basic
        strategy one per iteration."""
        from repro.config import ExecOptions
        from repro.xquery.context import DynamicContext
        from repro.xquery.evaluator import evaluate_module
        from repro.xquery.bulk import evaluate_module_bulk
        from repro.xquery.parser import parse

        database = Database()
        database.add_document("m.xml", """
            <s>
              <c id="1" start="0" end="10"/>
              <c id="2" start="20" end="30"/>
              <c id="3" start="40" end="50"/>
              <t start="1" end="2"/>
              <t start="21" end="22"/>
            </s>""")
        query = parse('for $c in doc("m.xml")//c '
                      'return count($c/select-narrow::t)')

        ctx = DynamicContext(database.store,
                             options=ExecOptions(strategy="basic"))
        evaluate_module(query, ctx)
        assert ctx.standoff_join_calls == 3      # one per iteration

        ctx = DynamicContext(database.store,
                             options=ExecOptions(strategy="ll"))
        evaluate_module_bulk(query, ctx)
        assert ctx.standoff_join_calls == 1      # one for the whole loop


class TestStandoffConversionAPI:
    def test_add_document_standoff(self):
        db = Database()
        db.add_document_standoff(
            "book.xml",
            "<book><title>Stand-Off</title>"
            "<chapter>One upon a time.</chapter></book>")
        # structure preserved, text moved to the BLOB
        assert db.query('count(doc("book.xml")//chapter/text())') == [0]
        (title,) = db.query(
            'blob-content("book.xml.blob", doc("book.xml")//title)')
        assert "Stand-Off" in title
        # select-narrow == descendant on the unpermuted conversion
        narrow = db.query('doc("book.xml")//book/select-narrow::title')
        descend = db.query('doc("book.xml")//book/descendant::title')
        assert [n.pre for n in narrow] == [n.pre for n in descend]

    def test_custom_blob_uri(self):
        db = Database()
        db.add_document_standoff("d.xml", "<d>text</d>",
                                 blob_uri="corpus")
        assert db.query('blob-length("corpus")')[0] > 0
