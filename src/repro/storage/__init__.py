"""Out-of-core, zero-copy storage for shredded documents.

``save_store(path, db)`` writes every stored document's shredded
columns — pre/size/level/parent/kind/name, the value string heap, the
element-name index and the default-config region table — into one
versioned store file (:mod:`repro.storage.format`).  The columns are
the document: the file holds no XML text.  ``open_store(path)`` maps
it back with ``np.memmap``:

* **O(1) cold start** — only the header is read; columns are zero-copy
  mapped views, so no shred, no region extraction, no DOM build happens
  at open.  The DOM is built from the columns
  (:func:`repro.xmldb.shred.unshred`) lazily, the first time a caller
  actually asks for nodes (query results decode through
  ``node_by_pre``); the join kernels themselves run entirely off the
  mapped columns.
* **page sharing** — any number of processes mapping the same file
  share its pages read-only, which is what makes the process-pool
  executor (:mod:`repro.exec.procpool`) ship `(path, slice)` job
  descriptors instead of array payloads.

The same machinery backs the ``REPRO_STORAGE=mmap`` mode: a
:class:`~repro.xmldb.store.StoredDocument` without a store file behind
it spills its freshly shredded columns to one in a temp directory and
re-opens them mapped (:func:`spill_document`), keeping its in-memory
DOM for node decoding.  Either way the stored document is the same
class holding a :class:`StoreReader` as its backing.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile

import numpy as np

from repro.config import DEFAULT_CONFIG, STORAGE_MMAP
from repro.core.region_index import RegionIndex, RegionTable
from repro.errors import StorageFormatError
from repro.exec import lockcheck
from repro.storage.format import (
    ALIGNMENT,
    FORMAT_VERSION,
    MAGIC,
    StoreFile,
    write_store,
)
from repro.xmldb.dom import Document
from repro.xmldb.shred import ShreddedDocument, StringHeap, shred
from repro.xmldb.store import DocumentStore, StoredDocument, extract_regions

__all__ = [
    "ALIGNMENT", "FORMAT_VERSION", "MAGIC", "StoreFile", "StoreReader",
    "save_store", "open_store",
    "open_store_reader", "spill_document", "spill_directory",
    "store_stats",
]


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------

def _default_region_table(document: Document) -> RegionTable | None:
    """The default-config region table, or ``None`` when the document
    cannot be extracted under the default config (e.g. it declares
    ``xs:double`` positions).  A ``None`` table is simply not persisted;
    region lookups then fall back to DOM extraction, which reproduces
    the exact in-memory error semantics at query time."""
    from repro.errors import RegionError

    try:
        return RegionIndex.build(
            extract_regions(document, DEFAULT_CONFIG)).table
    except RegionError:
        return None


def _document_entry(document: Document, shredded: ShreddedDocument
                    ) -> dict:
    """One document's ``write_store`` entry (columns + metadata)."""
    region_table = _default_region_table(document)
    values = shredded.values
    heap = (values if isinstance(values, StringHeap)
            else StringHeap.from_dict(values))
    items = sorted(shredded._element_index.items())
    elind_offsets = np.zeros(len(items) + 1, dtype="<i8")
    if items:
        np.cumsum([len(pres) for _nid, pres in items],
                  out=elind_offsets[1:])
        elind_pres = np.concatenate([pres for _nid, pres in items])
    else:
        elind_pres = np.empty(0, dtype="<i8")
    columns = {
        "pre": shredded.pre,
        "size": shredded.size,
        "level": shredded.level,
        "kind": shredded.kind,
        "parent": shredded.parent,
        "name": shredded.name,
        "elind_nids": np.asarray([nid for nid, _p in items],
                                 dtype="<i4"),
        "elind_offsets": elind_offsets,
        "elind_pres": elind_pres,
        "val_pres": heap.pres,
        "val_offsets": heap.offsets,
        "val_heap": heap.heap,
    }
    if region_table is not None:
        columns["reg_starts"] = region_table.starts
        columns["reg_ends"] = region_table.ends
        columns["reg_ids"] = region_table.ids
    return {
        "uri": document.uri,
        "doc_id": document.doc_id,
        "n_nodes": len(shredded),
        "names": list(shredded.names),
        "has_regions": region_table is not None,
        "columns": columns,
    }


def save_store(path: str, source) -> str:
    """Write a store file holding every document of *source*.

    *source* is a :class:`~repro.xquery.engine.Database`, a
    :class:`~repro.xmldb.store.DocumentStore`, or an iterable of
    :class:`~repro.xmldb.store.StoredDocument`.  Region tables are
    persisted for the default standoff configuration (queries with a
    custom ``declare option`` preamble fall back to DOM extraction).
    """
    store = getattr(source, "store", source)
    write_store(str(path), [
        _document_entry(stored.document, stored.shredded)
        for stored in store])
    return str(path)


# ----------------------------------------------------------------------
# Opening
# ----------------------------------------------------------------------

class StoreReader:
    """Engine-level view of one mapped store file.

    Wraps the low-level :class:`~repro.storage.format.StoreFile` and
    rebuilds the engine objects from the mapped columns:
    :meth:`shredded` (zero-copy :class:`ShreddedDocument`),
    :meth:`region_index`, :meth:`document` (the DOM those columns
    encode), and :meth:`stored` (a lazy
    :class:`~repro.xmldb.store.StoredDocument` backed by this reader).
    """

    def __init__(self, path: str):
        self._file = StoreFile(path)
        self.path = self._file.path
        self._metas = {meta["uri"]: meta
                       for meta in self._file.header["documents"]}
        self._stored: dict[str, StoredDocument] = {}
        self._stored_lock = lockcheck.new_lock("StoreReader._stored_lock")

    @property
    def file_size(self) -> int:
        return self._file.file_size

    def uris(self) -> list[str]:
        return list(self._metas)

    def meta(self, uri: str) -> dict:
        try:
            return self._metas[uri]
        except KeyError:
            raise StorageFormatError(
                f"store {self.path!r} holds no document {uri!r} "
                f"(has: {sorted(self._metas)})") from None

    def _column(self, uri: str, suffix: str) -> np.ndarray:
        return self._file.column(f"{self.meta(uri)['prefix']}/{suffix}")

    def shredded(self, uri: str, *, document: Document | None = None
                 ) -> ShreddedDocument:
        """The document's shred over zero-copy mapped columns; without
        a *document* it builds its own from them on first use."""
        meta = self.meta(uri)
        col = lambda suffix: self._column(uri, suffix)  # noqa: E731
        nids = col("elind_nids")
        offsets = col("elind_offsets")
        pres = col("elind_pres")
        element_index = {
            int(nid): pres[offsets[i]:offsets[i + 1]]
            for i, nid in enumerate(nids.tolist())}
        return ShreddedDocument.from_columns(
            pre=col("pre"), size=col("size"), level=col("level"),
            kind=col("kind"), parent=col("parent"), name=col("name"),
            names=meta["names"],
            values=StringHeap(col("val_pres"), col("val_offsets"),
                              col("val_heap")),
            element_index=element_index,
            document=document, doc_id=meta["doc_id"],
            store_ref=(self.path, uri))

    def has_regions(self, uri: str) -> bool:
        """True when the store persists *uri*'s default region table."""
        return bool(self.meta(uri).get("has_regions", True))

    def region_index(self, uri: str) -> RegionIndex:
        """The default-config region index over mapped columns."""
        if not self.has_regions(uri):
            raise StorageFormatError(
                f"store {self.path!r} holds no default-config region "
                f"table for {uri!r}")
        table = RegionTable(self._column(uri, "reg_starts"),
                            self._column(uri, "reg_ends"),
                            self._column(uri, "reg_ids"),
                            presorted=True)
        index = RegionIndex(table)
        index.store_ref = (self.path, uri)
        return index

    def document(self, uri: str) -> Document:
        """A DOM built from the mapped columns (a fresh one per call;
        :meth:`stored` is the facade that keeps one)."""
        return self.shredded(uri).document

    def stored(self, uri: str) -> StoredDocument:
        """The (cached) lazy stored-document facade for *uri*."""
        # Locked: concurrent first touches must agree on one facade,
        # or downstream node-identity checks see two DOM instances.
        with self._stored_lock:
            cached = self._stored.get(uri)
            if cached is None:
                cached = StoredDocument(backing=self, uri=uri)
                lockcheck.assert_locked(self._stored_lock,
                                        "StoreReader._stored")
                self._stored[uri] = cached
            return cached

    def verify(self) -> None:
        """Full checksum verification (reads every page)."""
        self._file.verify()


def open_store(path: str, *, plan_cache_size: int | None = None):
    """Open a saved store as a ready-to-query ``Database``.

    O(1) in document size: nothing is parsed or shredded; every
    registered document resolves its columns from the mapping and
    builds its DOM from them lazily.
    """
    from repro.xquery.engine import Database

    reader = StoreReader(path)
    db = Database(plan_cache_size=plan_cache_size)
    for uri in reader.uris():
        db.store.register(reader.stored(uri))
    return db


#: Process-wide reader cache — worker processes re-open each store file
#: exactly once and reuse the mapping across shard jobs.
_READERS: dict[str, StoreReader] = {}
_READERS_LOCK = lockcheck.new_lock("storage._READERS_LOCK")


def open_store_reader(path: str) -> StoreReader:
    """A cached :class:`StoreReader` for *path* (worker-side hot path)."""
    path = str(path)
    with _READERS_LOCK:
        reader = _READERS.get(path)
        if reader is None:
            reader = StoreReader(path)
            _READERS[path] = reader
        return reader


# ----------------------------------------------------------------------
# Spilling (the REPRO_STORAGE=mmap backend)
# ----------------------------------------------------------------------

_SPILL_DIR: str | None = None
_SPILL_LOCK = lockcheck.new_lock("storage._SPILL_LOCK")
_SPILL_SEQ = 0


def spill_directory() -> str:
    """The directory automatic spill files are written to.

    ``REPRO_STORAGE_DIR`` (read live, so a test harness can point it at
    a session temp dir) or a private temp directory removed at exit.
    """
    global _SPILL_DIR
    configured = os.environ.get("REPRO_STORAGE_DIR")
    if configured:
        os.makedirs(configured, exist_ok=True)
        return configured
    with _SPILL_LOCK:
        if _SPILL_DIR is None:
            _SPILL_DIR = tempfile.mkdtemp(prefix="repro-stores-")
            atexit.register(shutil.rmtree, _SPILL_DIR,
                            ignore_errors=True)
        return _SPILL_DIR


def spill_document(document: Document) -> tuple[str, StoreReader]:
    """Write one document's columns to a spill store and map them back.

    The mmap storage backend's workhorse: the document is shredded and
    its default region table extracted *once*, written to a store file,
    and immediately re-opened — the caller keeps the mapped columns
    (and its in-memory DOM for node decoding), and worker processes can
    re-open the same file by path.
    """
    global _SPILL_SEQ
    with _SPILL_LOCK:
        _SPILL_SEQ += 1
        seq = _SPILL_SEQ
    path = os.path.join(
        spill_directory(),
        f"spill-{os.getpid()}-{seq}-doc{document.doc_id}.repro")
    write_store(path, [_document_entry(document, shred(document))])
    return path, StoreReader(path)


# ----------------------------------------------------------------------
# Introspection (CLI `\store stats`)
# ----------------------------------------------------------------------

def _smaps_stats(path: str) -> tuple[int, int] | None:
    """(mapped, resident) bytes of this process's mappings of *path*,
    from ``/proc/self/smaps``; ``None`` when unavailable."""
    try:
        with open("/proc/self/smaps") as fh:
            lines = fh.readlines()
    except OSError:
        return None
    real = os.path.realpath(path)
    mapped = resident = 0
    found = in_target = False
    for line in lines:
        if "-" in line.split(" ", 1)[0] and " " in line:
            # A mapping header: "addr-addr perms offset dev inode path"
            parts = line.split(None, 5)
            target = len(parts) == 6 and \
                os.path.realpath(parts[5].strip()) == real
            if target:
                lo, _sep, hi = parts[0].partition("-")
                try:
                    mapped += int(hi, 16) - int(lo, 16)
                except ValueError:
                    target = False
            in_target = target
            found = found or target
        elif in_target and line.startswith("Rss:"):
            try:
                resident += int(line.split()[1]) * 1024
            except (IndexError, ValueError):
                pass
    return (mapped, resident) if found else None


def store_stats(db) -> list[dict]:
    """Per-document storage stats for a database (CLI ``\\store stats``).

    Each row: uri, backend, store path (if any), file size, and —
    on Linux — mapped vs resident bytes of this process's mapping.
    """
    rows = []
    for stored in db.store:
        row = {"uri": stored.uri, "backend": "memory", "path": None,
               "file_size": None, "mapped_bytes": None,
               "resident_bytes": None}
        backing = stored._backing
        if backing is not None:
            row["backend"] = "mmap"
            row["path"] = backing.path
            try:
                row["file_size"] = os.path.getsize(backing.path)
            except OSError:
                pass
            stats = _smaps_stats(backing.path)
            if stats is not None:
                row["mapped_bytes"], row["resident_bytes"] = stats
        elif stored.storage_backend == STORAGE_MMAP:
            row["backend"] = "mmap (not yet spilled)"
        rows.append(row)
    return rows
