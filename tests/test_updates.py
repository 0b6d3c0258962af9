"""Update support: insert/delete with index maintenance (§3.3 (ii))."""

import pytest

from repro import Database
from repro.errors import XQueryTypeError

DOC = """
<video>
  <music artist="U2" start="0" end="31"/>
  <shot id="Intro" start="0" end="8"/>
</video>
"""


@pytest.fixture
def db():
    database = Database()
    database.add_document("v.xml", DOC)
    return database


class TestInsert:
    def test_inserted_annotation_joins(self, db):
        db.insert_nodes("v.xml", 'doc("v.xml")/video',
                        '<shot id="Teaser" start="9" end="20"/>')
        result = db.query(
            'doc("v.xml")//music/select-narrow::shot')
        assert [n.get_attribute("id") for n in result] == \
            ["Intro", "Teaser"]

    def test_insert_under_multiple_parents(self, db):
        count = db.insert_nodes("v.xml", 'doc("v.xml")//shot',
                                "<frame/>")
        assert count == 1
        assert db.query('count(doc("v.xml")//frame)') == [1]

    def test_insert_fragment_with_multiple_roots(self, db):
        db.insert_nodes("v.xml", 'doc("v.xml")/video',
                        '<a start="1" end="2"/><b start="3" end="4"/>')
        assert db.query('count(doc("v.xml")/video/*)') == [4]

    def test_shredded_columns_rebuilt(self, db):
        before = db.document("v.xml").shredded
        db.insert_nodes("v.xml", 'doc("v.xml")/video', "<x/>")
        after = db.document("v.xml").shredded
        assert after is not before
        assert len(after.elements_named("x")) == 1

    def test_global_index_invalidated(self, db):
        before = db.store.global_region_index()
        db.insert_nodes("v.xml", 'doc("v.xml")/video',
                        '<shot id="New" start="40" end="50"/>')
        after = db.store.global_region_index()
        assert after is not before
        assert len(after) == len(before) + 1

    def test_insert_rejects_foreign_parent(self, db):
        db.add_document("other.xml", "<o/>")
        with pytest.raises(XQueryTypeError):
            db.insert_nodes("v.xml", 'doc("other.xml")/o', "<x/>")

    def test_insert_rejects_attribute_parent(self, db):
        with pytest.raises(XQueryTypeError):
            db.insert_nodes("v.xml", 'doc("v.xml")//shot/@id', "<x/>")

    def test_no_parents_no_invalidation(self, db):
        version = db.store.version
        count = db.insert_nodes("v.xml", 'doc("v.xml")//nothing',
                                "<x/>")
        assert count == 0
        assert db.store.version == version


class TestDelete:
    def test_deleted_annotation_gone_from_joins(self, db):
        deleted = db.delete_nodes("v.xml", 'doc("v.xml")//shot')
        assert deleted == 1
        assert db.query(
            'doc("v.xml")//music/select-narrow::shot') == []

    def test_delete_attribute(self, db):
        db.delete_nodes("v.xml", 'doc("v.xml")//shot/@id')
        assert db.query('doc("v.xml")//shot/@id') == []

    def test_delete_rejects_document_node(self, db):
        with pytest.raises(XQueryTypeError):
            db.delete_nodes("v.xml", 'doc("v.xml")')

    def test_delete_region_updates_index(self, db):
        # Remove the music annotation: the join context disappears.
        db.delete_nodes("v.xml", 'doc("v.xml")//music')
        assert db.query(
            'doc("v.xml")//music/select-narrow::shot') == []
        index = db.document("v.xml").region_index()
        assert len(index) == 1      # only the shot remains

    def test_counts_after_roundtrip(self, db):
        db.insert_nodes("v.xml", 'doc("v.xml")/video',
                        '<shot id="X" start="70" end="80"/>')
        assert db.query('count(doc("v.xml")//shot)') == [2]
        db.delete_nodes("v.xml", 'doc("v.xml")//shot[@id="X"]')
        assert db.query('count(doc("v.xml")//shot)') == [1]


class TestTargetsResolveLikeReads:
    """Update targets are found under ``ll`` — the path a read of the
    same query takes — and fall back to the DOM walk only for a query
    ``ll`` refuses."""

    @pytest.fixture
    def strategies(self, db, monkeypatch):
        seen = []
        real = db.query

        def spy(text, **kwargs):
            seen.append(kwargs.get("strategy"))
            return real(text, **kwargs)

        monkeypatch.setattr(db, "query", spy)
        return seen

    def test_attribute_victim(self, db, strategies):
        deleted = db.delete_nodes(
            "v.xml", 'doc("v.xml")//shot[@id = "Intro"]/@start')
        assert deleted == 1
        assert strategies == ["ll"]
        shot = db.document("v.xml").document.root_element.children[1]
        assert [a.name for a in shot.attributes] == ["id", "end"]
        for strategy in ("basic", "ll"):
            assert db.query('doc("v.xml")//shot/@*',
                            strategy=strategy).serialize(sep=" ") \
                == 'id="Intro" end="8"'

    def test_target_with_a_declared_function(self, db, strategies):
        target = ('declare function local:shots($d) { $d//shot }; '
                  'local:shots(doc("v.xml"))')
        assert db.insert_nodes("v.xml", target, "<frame/>") == 1
        assert strategies == ["ll", "basic"]
        assert db.delete_nodes("v.xml", target) == 1
        assert db.query('count(doc("v.xml")//frame)') == [0]

    def test_target_with_a_loop_variable_in_a_predicate(self, db,
                                                        strategies):
        target = ('for $id in ("Intro", "Nope") '
                  'return doc("v.xml")//shot[@id = $id]')
        assert db.insert_nodes("v.xml", target, "<frame/>") == 1
        assert strategies == ["ll"]
        assert db.query('count(doc("v.xml")//shot/frame)') == [1]

    def test_foreign_and_document_targets_still_rejected(self, db):
        db.add_document("other.xml", "<o><shot/></o>")
        with pytest.raises(XQueryTypeError):
            db.delete_nodes("v.xml", 'doc("other.xml")//shot')
        with pytest.raises(XQueryTypeError):
            db.insert_nodes("v.xml", 'doc("v.xml")', "<x/>")


#: Updates that leave two text siblings touching — a shape XML text
#: cannot carry (a reparse would merge them), so only the columns can.
ADJACENT_TEXT = {
    "insert": ("<a><b>x</b></a>",
               lambda db: db.insert_nodes("d.xml", 'doc("d.xml")//b', "y")),
    "delete": ("<a><b>x<c/>y</b></a>",
               lambda db: db.delete_nodes("d.xml", 'doc("d.xml")//c')),
}
ADJACENT_TEXT_QUERIES = {
    'doc("d.xml")//b/text()': "x\ny",
    'count(doc("d.xml")//b/text())': "2",
    'doc("d.xml")': "<a><b>xy</b></a>",
}


class TestAdjacentText:
    @pytest.mark.parametrize("update", sorted(ADJACENT_TEXT))
    def test_strategies_agree_under_mmap(self, update):
        """The mmap backend used to refuse the spill (the document
        "does not survive a serialize/reparse round-trip"), so ``ll``
        raised where ``basic`` answered 2."""
        xml, apply = ADJACENT_TEXT[update]
        database = Database(storage_backend="mmap")
        database.add_document("d.xml", xml)
        assert apply(database) == 1
        for query, want in ADJACENT_TEXT_QUERIES.items():
            for strategy in ("basic", "ll"):
                got = database.query(query, strategy=strategy).serialize()
                assert got == want, (query, strategy)
