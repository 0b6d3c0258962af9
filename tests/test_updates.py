"""Update support: insert/delete with index maintenance (§3.3 (ii))."""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import Database
from repro.config import StandoffConfig
from repro.errors import ReproError, XQueryTypeError
from repro.xmldb.shred import _attribute_column, shred
from repro.xmldb.store import extract_regions

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


# ----------------------------------------------------------------------
# splices against a rebuild from the DOM
# ----------------------------------------------------------------------

#: Attribute-form areas on a/b/c, element-form ones on b and e, text
#: under b and c, and a b nested in a b.
SPLICE_XML = (
    '<r><a i="1" start="0" end="40"><b i="2" start="1" end="5">x</b>'
    '<c start="2" end="3"/><b start="6" end="9"><b i="1" start="7" end="8"/>'
    '</b></a><a i="2" start="50" end="90"><b i="1" start="51" end="60">'
    '<region><start>51</start><end>55</end></region></b>'
    '<c i="1" start="61" end="62">y</c>'
    '<e><region><start>0</start><end>100</end></region></e></a></r>')
S = 'doc("s.xml")'
ELEMENT_FORM = 'declare option standoff-region "region"\n'
SPLICE_FRAGMENTS = [
    '<b i="3" start="10" end="12"/>',                   # element
    "z",                                                # text
    '<c start="20" end="30"/><b i="4">w</b>',           # several roots
    '<e i="5"><region><start>5</start><end>7</end></region></e>',
    "<!--k-->",
]
SPLICE_PARENTS = [
    f"{S}/r", f"{S}//a", f"{S}//b",                     # one, several
    f"{S}//*[self::a or self::b]",                      # nested
    f"{S}//e",
]
SPLICE_VICTIMS = [
    f"{S}//c", f"{S}/r/a[1]", f"{S}//b/text()",
    f"{S}//*[self::b or self::c]",                      # nested
    f"{S}//b/@i", f"{S}//c/@*",                         # attributes
    f"{S}//e/region", f"{S}//b/region/start",           # element form
]
SPLICE_READS = [
    f"count({S}//b)",
    f"{S}//a/select-narrow::b",
    f'{S}//b[@i = "1"]',
    f"for $x in {S}//a return count($x/select-wide::c)",
    f"{S}//b/text()",
    ELEMENT_FORM + f"{S}//e/select-narrow::*",
    ELEMENT_FORM + f"count({S}//a/select-wide::*)",
    S,
]


def _outcome(db, query: str, strategy: str) -> str:
    try:
        return db.query(query, strategy=strategy).serialize(sep="|")
    except ReproError as exc:
        return type(exc).__name__


def _decoded(shredded) -> dict:
    """A shred's columns with names, values and the element index
    decoded, so two dictionaries' id orders do not matter."""
    names = shredded.names
    return {
        "pre": shredded.pre.tolist(), "size": shredded.size.tolist(),
        "level": shredded.level.tolist(), "kind": shredded.kind.tolist(),
        "parent": shredded.parent.tolist(),
        "name": [names[nid] if nid >= 0 else None
                 for nid in shredded.name.tolist()],
        "values": dict(zip(shredded.values.pres.tolist(),
                           shredded.values.strings())),
        "elements": {name: shredded.elements_named(name).tolist()
                     for name in sorted(set(names))
                     if len(shredded.elements_named(name))},
    }


def _column(column) -> tuple:
    return (column.rows.tolist(), column.owners.tolist(),
            [column.distinct[code] for code in column.codes.tolist()])


class SpliceMachine(RuleBasedStateMachine):
    """Updates interleaved with reads; after every step the spliced
    shred, attribute columns and region indexes equal a rebuild from
    the DOM, and ``ll`` answers as ``basic`` does."""

    def __init__(self):
        super().__init__()
        self.db = Database()
        self.db.add_document("s.xml", SPLICE_XML)
        self.stored = self.db.document("s.xml")

    @rule(parent=st.sampled_from(SPLICE_PARENTS),
          fragment=st.sampled_from(SPLICE_FRAGMENTS))
    def insert(self, parent, fragment):
        self.db.insert_nodes("s.xml", parent, fragment)

    @rule(digit=st.sampled_from("05"))
    def lengthen_an_end(self, digit):
        # appended digits only grow an end: the area stays well-formed
        self.db.insert_nodes("s.xml", f"{S}//region/end", digit)

    @rule(victims=st.sampled_from(SPLICE_VICTIMS))
    def delete(self, victims):
        self.db.delete_nodes("s.xml", victims)

    @rule(query=st.sampled_from(SPLICE_READS))
    def read(self, query):
        assert _outcome(self.db, query, "ll") == \
            _outcome(self.db, query, "basic")

    @rule(local=st.sampled_from(["i", "start"]))
    def build_a_column(self, local):
        self.stored.shredded.attribute_column(local)

    @invariant()
    def spliced_equals_rebuilt(self):
        spliced = self.stored.shredded
        rebuilt = shred(self.stored.document)
        assert _decoded(spliced) == _decoded(rebuilt)
        for local, column in spliced.attribute_columns().items():
            assert _column(column) == \
                _column(_attribute_column(rebuilt, local))
        for config, index in list(self.stored._region_indexes.items()):
            want = extract_regions(shred(self.stored.document), config)
            assert index.table == want, config

    @invariant()
    def both_forms_indexed(self):
        # keep an index of each form cached for the next update to splice
        for config in (StandoffConfig(), StandoffConfig(region_name="region")):
            try:
                self.stored.region_index(config)
            except ReproError:
                assert config not in self.stored._region_indexes


TestSpliceMachine = SpliceMachine.TestCase
TestSpliceMachine.settings = settings(max_examples=30,
                                      stateful_step_count=12,
                                      deadline=None)


@pytest.mark.parametrize("xml, updates", [
    ("<a/>", [("insert", 'doc("d.xml")/a', "<b/>"),
              ("delete", 'doc("d.xml")//b')]),          # no values at all
    ("<a>t</a>", [("delete", 'doc("d.xml")/a/text()'),
                  ("insert", 'doc("d.xml")/a', "")]),   # empty fragment
    ("<a><b><c/></b></a>", [("insert", 'doc("d.xml")//*', "<x y='1'>z</x>"),
                            ("delete", 'doc("d.xml")//b')]),
    ("<a p='1'><b q='2'/></a>", [("delete", 'doc("d.xml")//@*'),
                                 ("insert", 'doc("d.xml")//b',
                                  "<?pi data?><!--c-->")]),
    ("<a><b/><b/></a>", [("insert", 'for $i in (1, 2) '
                          'return doc("d.xml")/a/b[1]', "<q/>")]),
])
@pytest.mark.parametrize("backend", ["memory", "mmap"])
def test_edge_splices(xml, updates, backend):
    database = Database(storage_backend=backend)
    database.add_document("d.xml", xml)
    stored = database.document("d.xml")
    stored.region_index()
    for action, target, *fragment in updates:
        if action == "insert":
            database.insert_nodes("d.xml", target, *fragment)
        else:
            database.delete_nodes("d.xml", target)
        assert _decoded(stored.shredded) == \
            _decoded(shred(stored.document))


class TestSnapshots:
    def test_held_shred_and_table_survive_a_write(self, db):
        stored = db.document("v.xml")
        shredded, table = stored.shredded, stored.region_index().table
        columns = {name: getattr(shredded, name).copy() for name in
                   ("pre", "size", "level", "kind", "parent", "name")}
        heap = shredded.values.heap.copy()
        rows = [column.copy() for column in
                (table.starts, table.ends, table.ids)]
        db.insert_nodes("v.xml", 'doc("v.xml")/video',
                        '<shot id="New" start="1" end="2"/>')
        db.delete_nodes("v.xml", 'doc("v.xml")//music')
        assert stored.shredded is not shredded
        assert stored.region_index().table is not table
        for name, column in columns.items():
            assert np.array_equal(getattr(shredded, name), column), name
        assert np.array_equal(shredded.values.heap, heap)
        for got, want in zip((table.starts, table.ends, table.ids), rows):
            assert np.array_equal(got, want)

    def test_held_shred_decodes_to_its_own_nodes(self):
        database = Database()
        database.add_document("n.xml", "<a><b/><c/></a>")
        shredded = database.document("n.xml").shredded
        database.insert_nodes("n.xml", 'doc("n.xml")//b', "<x/>")
        assert shredded.name_of(3) == "c"
        assert shredded.node_by_pre(3).tag == "c"
        assert database.document("n.xml").shredded.node_by_pre(3).tag \
            == "x"


class TestSpliceCost:
    def test_one_renumber_per_write_and_no_rebuild_on_read(self, db,
                                                          monkeypatch):
        """A write renumbers the stored DOM once; the read after it
        neither shreds nor extracts regions over the whole document."""
        from repro.xmldb import store
        from repro.xmldb.dom import Document

        read = 'doc("v.xml")//music/select-narrow::shot'
        db.query(read)                  # shred and region index built
        stored = db.document("v.xml")
        calls = []
        renumber = Document.renumber

        def spy_renumber(document):
            if document is stored.document:
                calls.append("renumber")
            return renumber(document)

        def spy(name):
            original = getattr(store, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(store, name, wrapper)

        monkeypatch.setattr(Document, "renumber", spy_renumber)
        spy("shred")
        spy("extract_regions")
        db.insert_nodes("v.xml", 'doc("v.xml")/video',
                        '<shot id="Teaser" start="9" end="20"/>')
        assert calls == ["renumber"]
        assert len(db.query(read)) == 2
        db.delete_nodes("v.xml", 'doc("v.xml")//shot[@id = "Teaser"]')
        assert len(db.query(read)) == 1
        assert calls == ["renumber", "renumber"]


class TestHalfRegions:
    def test_write_succeeds_and_the_read_raises(self):
        """Deleting ``@start`` leaves half a region: the write still
        goes through, and the next StandOff step raises the error a
        rebuild from the DOM raises."""
        from repro.errors import RegionError

        database = Database()
        database.add_document(
            "h.xml", '<a><b start="1" end="5"/><c start="0" end="9"/></a>')
        read = 'doc("h.xml")//c/select-narrow::b'
        assert len(database.query(read)) == 1
        assert database.delete_nodes("h.xml", 'doc("h.xml")//b/@start') == 1
        for strategy in ("ll", "basic"):
            with pytest.raises(RegionError, match=(
                    r"^element <b> \(pre 2\) has only one of "
                    r"@start/@end$")):
                database.query(read, strategy=strategy)


class TestSpill:
    def test_spliced_columns_spill_without_a_shred(self, monkeypatch):
        """Under ``mmap`` the read after a write spills the spliced
        columns and region table: no shred of the DOM, no extraction."""
        from repro import storage
        from repro.xmldb import store

        database = Database(storage_backend="mmap")
        database.add_document("v.xml", DOC)
        read = 'doc("v.xml")//music/select-narrow::shot'
        assert len(database.query(read)) == 1
        first = database.document("v.xml").shredded.store_ref
        calls = []
        for module, name in ((storage, "shred"), (store, "shred"),
                             (storage, "extract_regions"),
                             (store, "extract_regions")):
            monkeypatch.setattr(module, name,
                                lambda *a, _n=name, **k: calls.append(_n))
        entries = []
        entry = storage._document_entry
        monkeypatch.setattr(storage, "_document_entry",
                            lambda *args: entries.append(args)
                            or entry(*args))
        database.insert_nodes("v.xml", 'doc("v.xml")/video',
                              '<shot id="Teaser" start="9" end="20"/>')
        assert len(database.query(read)) == 2
        stored = database.document("v.xml")
        assert stored.shredded.store_ref not in (None, first)
        assert stored.region_index().store_ref == stored.shredded.store_ref
        assert calls == [] and len(entries) == 1
