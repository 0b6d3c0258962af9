"""The on-disk columnar store: round-trips, validation, dtype pinning.

Three concerns share this module:

* **round-trip fidelity** — ``save_store`` / ``open_store`` must hand
  back a database that answers every query exactly like the in-memory
  original, off zero-copy mapped columns;
* **format validation** — a corrupt header, truncated file, wrong
  magic, unsupported version, or columns that do not encode a document
  must raise the dedicated :class:`repro.errors.StorageFormatError`
  (never a cryptic NumPy, JSON or index error), and blob corruption
  must be caught by ``verify()``;
* **column invariants** — explicit little-endian dtypes (the on-disk
  format must not inherit platform defaults) and read-only columns
  (mapped pages are shared across processes; nothing may write them).
"""

import os
import sys

import numpy as np
import pytest

from repro import storage
from repro.core.region_index import RegionIndex, RegionTable
from repro.errors import StorageFormatError
from repro.storage.format import MAGIC, StoreFile, write_store
from repro.xmldb.parser import parse_document
from repro.xmldb.shred import fragment_fingerprint, shred, shred_fragment
from repro.xquery.engine import Database
from test_updates import ADJACENT_TEXT, ADJACENT_TEXT_QUERIES

DOC_A = """<video><music artist="U2" start="10" end="99">\
<shot start="12" end="20">intro</shot>\
<shot start="40" end="55"/></music>\
<!-- annotated stream --><music artist="Moby" start="120" end="180"/>\
</video>"""

SHRED_COLUMNS = ("pre", "size", "level", "kind", "parent", "name")

DOC_B = """<r>
  <a i="1">text <b>nested</b> tail</a>
  <?pi data?>
  <a i="2"/>
</r>"""

QUERIES = (
    'count(doc("a.xml")//shot)',
    'doc("a.xml")//music[@artist="U2"]/select-wide::shot',
    'for $m in doc("a.xml")//music return count($m/reject-narrow::shot)',
    'doc("b.xml")//a[@i="1"]/descendant-or-self::node()',
    'doc("b.xml")/r/child::node()/following-sibling::a',
)


def build_db():
    db = Database()
    db.add_document("a.xml", DOC_A)
    db.add_document("b.xml", DOC_B)
    return db


def stored_arrays(sh) -> dict:
    """Every array a store file holds for a shred, by column name."""
    arrays = {col: getattr(sh, col) for col in SHRED_COLUMNS}
    arrays.update(
        val_pres=sh.values.pres, val_offsets=sh.values.offsets,
        val_heap=sh.values.heap, elind_nids=sh.element_index.nids,
        elind_offsets=sh.element_index.offsets,
        elind_pres=sh.element_index.pres)
    return arrays


def assert_same_arrays(mine: dict, theirs: dict) -> None:
    """Equal by value and by dtype, column by column."""
    assert sorted(mine) == sorted(theirs)
    for col, arr in mine.items():
        assert arr.dtype.str == theirs[col].dtype.str, col
        assert np.array_equal(arr, theirs[col]), col


def orphan_arrays(document_shred) -> dict:
    """The arrays of a document's one top-level subtree shredded as an
    orphan fragment: every row but the document's, renumbered from 0."""
    arrays = stored_arrays(document_shred)
    rows = {col: arrays[col][1:] for col in SHRED_COLUMNS}
    for col in ("pre", "level", "parent"):
        rows[col] = rows[col] - 1
    rows.update(val_pres=arrays["val_pres"] - 1,
                elind_pres=arrays["elind_pres"] - 1)
    return {**arrays, **rows}


@pytest.fixture()
def store_path(tmp_path):
    path = str(tmp_path / "docs.repro")
    storage.save_store(path, build_db())
    return path


# ----------------------------------------------------------------------
# round-trip
# ----------------------------------------------------------------------

class TestRoundTrip:
    def test_queries_identical_after_reopen(self, store_path):
        original = build_db()
        reopened = storage.open_store(store_path)
        for query in QUERIES:
            want = original.query(query, strategy="basic").serialize()
            assert reopened.query(query,
                                  strategy="basic").serialize() == want
            assert reopened.query(query, strategy="ll",
                                  workers=4,
                                  shard_min_rows=1).serialize() == want

    def test_columns_identical_after_reopen(self, store_path):
        original = build_db()
        reader = storage.StoreReader(store_path)
        for uri in ("a.xml", "b.xml"):
            mine = original.store.get(uri).shredded
            mapped = reader.shredded(uri)
            for col in ("pre", "size", "level", "kind", "parent",
                        "name"):
                assert np.array_equal(getattr(mine, col),
                                      getattr(mapped, col)), (uri, col)
            assert list(mine.names) == list(mapped.names)
            for pre in mine.pre.tolist():
                assert mine.value_of(pre) == mapped.value_of(pre)
            assert_same_arrays(stored_arrays(mine), stored_arrays(mapped))

    @pytest.mark.parametrize("xml", [DOC_A, DOC_B], ids=["a", "b"])
    def test_orphan_fragment_has_the_document_layout(self, xml):
        """An orphan subtree shreds to the arrays of the same subtree
        inside a document, less the document row."""
        document = parse_document(xml, uri="f.xml")
        in_document = shred(document)
        root = document.root_element
        root.parent = None
        assert_same_arrays(stored_arrays(shred_fragment(root)),
                           orphan_arrays(in_document))

    def test_region_table_identical_after_reopen(self, store_path):
        original = build_db()
        reader = storage.StoreReader(store_path)
        mine = original.store.get("a.xml").region_index().table
        mapped = reader.region_index("a.xml").table
        assert np.array_equal(mine.starts, mapped.starts)
        assert np.array_equal(mine.ends, mapped.ends)
        assert np.array_equal(mine.ids, mapped.ids)

    def test_open_is_lazy(self, store_path):
        """Opening must not parse, shred, or touch column pages."""
        db = storage.open_store(store_path)
        for stored in db.store:
            assert stored._document is None
            assert stored._shredded is None

    def test_verify_passes_on_clean_store(self, store_path):
        storage.StoreReader(store_path).verify()

    def test_save_store_path_returned(self, tmp_path):
        path = str(tmp_path / "out.repro")
        assert storage.save_store(path, build_db()) == path

    def test_dom_identical_after_reopen(self, store_path):
        """The DOM is built from the columns: same content, and the
        numbering it carries is the one a fresh renumber() assigns."""
        original = build_db()
        reader = storage.StoreReader(store_path)
        for uri in ("a.xml", "b.xml"):
            want = original.store.get(uri).document
            got = reader.document(uri)
            assert (got.uri, got.doc_id) == (want.uri, want.doc_id)
            assert fragment_fingerprint(got.all_nodes()) == \
                fragment_fingerprint(want.all_nodes())
            assert got.serialize() == want.serialize()
            numbering = [(n.pre, n.size, n.level) for n in got.all_nodes()]
            got.renumber()
            assert numbering == [(n.pre, n.size, n.level)
                                 for n in got.all_nodes()]

    def test_store_holds_columns_only(self, store_path):
        file = StoreFile(store_path)
        assert file.header["format_version"] == storage.FORMAT_VERSION == 2
        assert not [name for name in file.header["blobs"]
                    if name.endswith("/xml")]
        for meta in file.header["documents"]:
            assert "keep_whitespace_text" not in meta
            assert "xml" not in meta["columns"]

    def test_resave_of_an_opened_store_builds_no_dom(self, store_path,
                                                     tmp_path, monkeypatch):
        """Re-saving reads the columns and the persisted region table:
        no document is rebuilt from its columns, and the new file holds
        the same documents and region tables."""
        shred_module = sys.modules["repro.xmldb.shred"]
        real, calls = shred_module.unshred, []

        def spy(*args, **kwargs):
            calls.append(kwargs.get("uri"))
            return real(*args, **kwargs)

        monkeypatch.setattr(shred_module, "unshred", spy)
        again = str(tmp_path / "again.repro")
        storage.save_store(again, storage.open_store(store_path))
        assert calls == []
        monkeypatch.setattr(shred_module, "unshred", real)
        first = storage.StoreReader(store_path)
        second = storage.StoreReader(again)
        assert second.uris() == first.uris()
        for uri in first.uris():
            assert fragment_fingerprint(
                second.document(uri).all_nodes()) == \
                fragment_fingerprint(first.document(uri).all_nodes())
            assert second.meta(uri)["doc_id"] == first.meta(uri)["doc_id"]
            assert second.has_regions(uri) == first.has_regions(uri)
            if first.has_regions(uri):
                mine = first.region_index(uri).table
                theirs = second.region_index(uri).table
                for column in ("starts", "ends", "ids"):
                    assert np.array_equal(getattr(mine, column),
                                          getattr(theirs, column))

    @pytest.mark.parametrize("update", sorted(ADJACENT_TEXT))
    def test_updated_document_is_storable(self, tmp_path, update):
        """Two text siblings touching (what an update leaves behind)
        would merge in a reparse, so ``save_store`` used to refuse the
        document; the columns carry it as it is."""
        xml, apply = ADJACENT_TEXT[update]
        db = Database()
        db.add_document("d.xml", xml)
        apply(db)
        path = storage.save_store(str(tmp_path / "d.repro"), db)
        reopened = storage.open_store(path)
        for query, want in ADJACENT_TEXT_QUERIES.items():
            for strategy in ("basic", "ll"):
                assert reopened.query(
                    query, strategy=strategy).serialize() == want


# ----------------------------------------------------------------------
# validation errors
# ----------------------------------------------------------------------

def _flip(path: str, offset: int, value: bytes) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write(value)


class TestValidation:
    def test_bad_magic(self, store_path):
        _flip(store_path, 0, b"NOTASTOR")
        with pytest.raises(StorageFormatError, match="magic"):
            StoreFile(store_path)

    def test_version_mismatch(self, store_path):
        _flip(store_path, len(MAGIC), (99).to_bytes(4, "little"))
        with pytest.raises(StorageFormatError, match="version 99"):
            StoreFile(store_path)

    @pytest.mark.parametrize("where", ["prefix", "header"])
    def test_version_1_rejected(self, store_path, where):
        """Version 1 embedded the XML next to the columns; there is no
        reader for it, and the error names both versions."""
        if where == "prefix":
            _flip(store_path, len(MAGIC), (1).to_bytes(4, "little"))
        else:
            with open(store_path, "rb") as fh:
                at = fh.read().index(b'"format_version":2')
            _flip(store_path, at, b'"format_version":1')
        with pytest.raises(StorageFormatError,
                           match=r"version 1\b.*version 2\b"):
            storage.open_store(store_path)

    def test_corrupt_header_json(self, store_path):
        _flip(store_path, len(MAGIC) + 12, b"\xff\xff\xff")
        with pytest.raises(StorageFormatError, match="header"):
            StoreFile(store_path)

    def test_truncated_prefix(self, store_path):
        with open(store_path, "r+b") as fh:
            fh.truncate(10)
        with pytest.raises(StorageFormatError, match="truncated"):
            StoreFile(store_path)

    def test_truncated_blobs(self, store_path):
        size = os.path.getsize(store_path)
        with open(store_path, "r+b") as fh:
            fh.truncate(size - 64)
        with pytest.raises(StorageFormatError, match="truncated"):
            StoreFile(store_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageFormatError, match="cannot open"):
            StoreFile(str(tmp_path / "nope.repro"))

    def test_missing_document(self, store_path):
        reader = storage.StoreReader(store_path)
        with pytest.raises(StorageFormatError, match="no document"):
            reader.shredded("missing.xml")

    def test_corrupt_blob_caught_by_verify(self, store_path):
        """Blob corruption is invisible to the O(1) open but must fail
        the explicit checksum pass."""
        file = StoreFile(store_path)
        entry = file.header["blobs"]["d0/pre"]
        del file  # release the mapping before rewriting
        _flip(store_path, entry["offset"], b"\x7f")
        reader = storage.StoreReader(store_path)  # opens fine
        with pytest.raises(StorageFormatError, match="checksum"):
            reader.verify()


#: rows: 0 document, 1 <a>, 2 @x, 3 <b>, 4 text, 5 <?p?>;
#: names: a, x, b, p; heap rows for 2, 4 and 5.
HOSTILE_BASE = '<a x="1"><b>t</b><?p d?></a>'


def _set(column, row, value):
    def patch(entry):
        patched = entry["columns"][column].copy()
        patched[row] = value
        entry["columns"][column] = patched
    return patch


def _attribute_under_document(entry):
    _set("level", 2, 1)(entry)
    _set("parent", 2, 0)(entry)


def _drop_last_heap_row(entry):
    for column in ("val_pres", "val_offsets"):
        entry["columns"][column] = entry["columns"][column][:-1]


def _bad_dictionary_entry(entry):
    entry["names"][2] = "1 b"


#: what the columns carry -> (patch, the row the error must name)
HOSTILE_COLUMNS = {
    "level skips a generation": (_set("level", 4, 5), 4),
    "unknown kind": (_set("kind", 3, 9), 3),
    "attribute under the document node": (_attribute_under_document, 2),
    "row 0 is not a document": (_set("kind", 0, 1), 0),
    "name id outside the dictionary": (_set("name", 3, 99), 3),
    "value-bearing kind without a heap row": (_drop_last_heap_row, 5),
    "invalid UTF-8 in the heap": (_set("val_heap", 0, 0xFF), 2),
    "dictionary entry that is not a QName": (_bad_dictionary_entry, 3),
}


class TestHostileColumns:
    """Blob checksums are not verified at open and the DOM is built
    from the columns, so columns that do not encode a document must end
    in a typed error naming the row — never ``IndexError``,
    ``KeyError`` or ``UnicodeDecodeError``."""

    @pytest.mark.parametrize("case", sorted(HOSTILE_COLUMNS))
    def test_dom_build_raises_typed_error(self, tmp_path, case):
        patch, row = HOSTILE_COLUMNS[case]
        db = Database()
        stored = db.add_document("h.xml", HOSTILE_BASE)
        entry = storage._document_entry(stored.document, stored.shredded)
        patch(entry)
        path = str(tmp_path / "hostile.repro")
        write_store(path, [entry])
        opened = storage.open_store(path)      # O(1): nothing read yet
        with pytest.raises(StorageFormatError, match=rf"row {row}\b"):
            opened.query('doc("h.xml")//b', strategy="basic")


# ----------------------------------------------------------------------
# column invariants
# ----------------------------------------------------------------------

class TestColumnInvariants:
    def test_region_table_dtypes_are_explicit_little_endian(self):
        """RegionTable must pin '<i8' (and '<f8' for xs:double
        positions) no matter what dtype the inputs arrive in — the
        on-disk format inherits these dtypes."""
        table = RegionTable(np.array([1, 5], dtype=np.int32),
                            np.array([4, 9], dtype=np.uint16),
                            np.array([2, 3], dtype=np.int64))
        assert table.starts.dtype.str == "<i8"
        assert table.ends.dtype.str == "<i8"
        assert table.ids.dtype.str == "<i8"
        doubles = RegionTable(np.array([1.5, 5.0], dtype=np.float32),
                              np.array([4.0, 9.5]),
                              np.array([2, 3]))
        assert doubles.starts.dtype.str == "<f8"
        assert doubles.ends.dtype.str == "<f8"

    def test_region_index_build_dtypes(self):
        index = RegionIndex.build([(1, 10, 20), (2, 12, 15)])
        assert index.table.starts.dtype.str == "<i8"
        assert index.table.ids.dtype.str == "<i8"

    def test_in_memory_columns_read_only(self):
        sh = shred(parse_document(DOC_A, uri="a.xml"))
        for col, arr in stored_arrays(sh).items():
            assert not arr.flags.writeable, col
        index = RegionIndex.build([(1, 10, 20), (2, 12, 15)])
        for col in ("starts", "ends", "ids"):
            assert not getattr(index.table, col).flags.writeable, col

    def test_mapped_columns_read_only(self, store_path):
        reader = storage.StoreReader(store_path)
        sh = reader.shredded("a.xml")
        for col, arr in stored_arrays(sh).items():
            assert not arr.flags.writeable, col
        table = reader.region_index("a.xml").table
        for col in ("starts", "ends", "ids"):
            assert not getattr(table, col).flags.writeable, col

    def test_derived_pools_read_only(self):
        sh = shred(parse_document(DOC_A, uri="a.xml"))
        assert not sh.non_attribute_pres().flags.writeable
        assert not sh.pres_of_kind(3).flags.writeable
        assert not sh.all_element_pres().flags.writeable
        prefixed = shred(parse_document(
            '<r xmlns:p="u"><p:a/><a/><b/></r>', uri="p.xml"))
        assert len(prefixed.elements_matching("a")) == 2
        assert not prefixed.elements_matching("a").flags.writeable
        assert not prefixed.elements_matching("b").flags.writeable

    def test_mutation_raises(self):
        sh = shred(parse_document(DOC_A, uri="a.xml"))
        with pytest.raises(ValueError):
            sh.pre[0] = 99


# ----------------------------------------------------------------------
# the mmap spill backend
# ----------------------------------------------------------------------

class TestSpillBackend:
    def test_spilled_columns_match_memory(self):
        mem = Database(storage_backend="memory")
        mm = Database(storage_backend="mmap")
        for db in (mem, mm):
            db.add_document("a.xml", DOC_A)
        a, b = mem.store.get("a.xml").shredded, \
            mm.store.get("a.xml").shredded
        assert b.store_ref is not None
        for col in SHRED_COLUMNS:
            assert np.array_equal(getattr(a, col), getattr(b, col))

    def test_spill_queries_identical(self):
        mem = Database(storage_backend="memory")
        mm = Database(storage_backend="mmap")
        for db in (mem, mm):
            db.add_document("a.xml", DOC_A)
            db.add_document("b.xml", DOC_B)
        for query in QUERIES:
            assert mm.query(query).serialize() == \
                mem.query(query).serialize(), query

    def test_parsed_document_spills_its_columns_without_a_dom(self):
        """A document added as text starts from its columns: the spill
        writes those, and the DOM is built from the mapped ones only
        when a node is decoded."""
        mm = Database(storage_backend="mmap")
        stored = mm.add_document("a.xml", DOC_A)
        assert stored._document is None and stored._shredded is None
        assert stored._unspilled[0].store_ref is None
        count = 'count(doc("a.xml")//shot)'
        assert mm.query(count, strategy="ll").serialize() == "2"
        assert stored.shredded.store_ref is not None
        assert stored._unspilled is None and stored._document is None
        mem = Database(storage_backend="memory")
        mem.add_document("a.xml", DOC_A)
        shots = 'doc("a.xml")//shot'
        assert mm.query(shots, strategy="ll").serialize() == \
            mem.query(shots, strategy="basic").serialize()
        assert stored.document is stored.shredded.document

    def test_store_stats_reports_backend(self):
        mm = Database(storage_backend="mmap")
        mm.add_document("a.xml", DOC_A)
        mm.store.get("a.xml").shredded  # trigger the spill
        (row,) = storage.store_stats(mm)
        assert row["backend"] == "mmap"
        assert row["file_size"] and row["file_size"] > 0

    def test_one_stored_document_through_every_backing(self, store_path):
        """memory -> spill -> invalidate -> respill, and open_store ->
        invalidate, on the one StoredDocument class: the backing comes
        and goes, the class and the answers do not."""
        from repro.xmldb.store import StoredDocument

        query = 'count(doc("a.xml")//shot)'
        shot = '<shot start="60" end="70"/>'
        target = 'doc("a.xml")//music[@artist="Moby"]'

        mem = Database(storage_backend="memory")
        mem.add_document("a.xml", DOC_A)
        stored = mem.store.get("a.xml")
        assert type(stored) is StoredDocument
        assert stored.shredded.store_ref is None and stored._backing is None

        mm = Database(storage_backend="mmap")
        mm.add_document("a.xml", DOC_A)
        stored = mm.store.get("a.xml")
        assert type(stored) is StoredDocument and stored._backing is None
        assert mm.query(query).serialize() == "2"
        first = stored.shredded.store_ref       # first touch spilled
        assert first is not None and os.path.exists(first[0])
        assert stored.region_index().store_ref == first
        mm.insert_nodes("a.xml", target, shot)  # store.touch -> invalidate
        assert stored._backing is None and not os.path.exists(first[0])
        assert mm.query(query).serialize() == "3"
        second = stored.shredded.store_ref      # respilled, a fresh file
        assert second is not None and second != first
        assert os.path.exists(second[0])

        opened = storage.open_store(store_path)
        stored = opened.store.get("a.xml")
        assert type(stored) is StoredDocument
        assert stored._document is None         # the DOM is still lazy
        assert stored.shredded.store_ref == (store_path, "a.xml")
        assert stored.region_index().store_ref == (store_path, "a.xml")
        opened.insert_nodes("a.xml", target, shot)
        assert stored._backing is None          # detached, file kept
        assert os.path.exists(store_path)
        assert opened.query(query).serialize() == "3"
        assert stored.shredded.store_ref != (store_path, "a.xml")
        (row,) = [r for r in storage.store_stats(opened)
                  if r["uri"] == "a.xml"]
        assert row["path"] != store_path
