"""Document store: named documents, shredded columns, region indexes.

The store owns everything the engine needs per document:

* the DOM (for the tree-walking evaluator and serialization);
* the shredded column representation (for Staircase Join and the
  element-name index);
* the **region index** extracted according to a
  :class:`~repro.config.StandoffConfig` (attribute or element
  representation, configurable names — paper §2).

Because the region representation is a *run-time* setting (a query's
``declare option`` preamble may change it), region indexes are built
lazily per (document, config) pair and cached.
"""

from __future__ import annotations

import os
from typing import Iterator

from repro.exec import lockcheck
from repro.config import (
    DEFAULT_CONFIG,
    STORAGE_MMAP,
    StandoffConfig,
    normalize_storage_backend,
)
from repro.core.region import Area, Region
from repro.core.region_index import RegionIndex
from repro.errors import RegionError, ReproError
from repro.xmldb.dom import Document, Element
from repro.xmldb.parser import parse_document
from repro.xmldb.shred import ShreddedDocument, shred


def extract_regions(document: Document, config: StandoffConfig = DEFAULT_CONFIG
                    ) -> Iterator[tuple[int, int | float, int | float]]:
    """Yield ``(pre, start, end)`` for every area-annotation element.

    Under the attribute representation an element is an area-annotation
    when it carries *both* the start and the end attribute; under the
    element representation when it has at least one ``<region>`` child
    with start/end child elements.  Elements with only one half of a
    region raise :class:`RegionError` — silently ignoring them would turn
    data errors into empty query results.
    """
    document.renumber()
    for node in document.descendants():
        if not isinstance(node, Element):
            continue
        if config.uses_region_elements:
            for region_el in node.elements(config.region_name):
                start_el = region_el.find(config.start_name)
                end_el = region_el.find(config.end_name)
                if start_el is None and end_el is None:
                    continue
                if start_el is None or end_el is None:
                    raise RegionError(
                        f"<{config.region_name}> under <{node.tag}> has "
                        f"only one of <{config.start_name}>/"
                        f"<{config.end_name}>")
                start = config.parse_position(start_el.string_value())
                end = config.parse_position(end_el.string_value())
                _check(start, end, node)
                yield node.pre, start, end
        else:
            raw_start = node.get_attribute(config.start_name)
            raw_end = node.get_attribute(config.end_name)
            if raw_start is None and raw_end is None:
                continue
            if raw_start is None or raw_end is None:
                raise RegionError(
                    f"element <{node.tag}> (pre {node.pre}) has only one "
                    f"of @{config.start_name}/@{config.end_name}")
            start = config.parse_position(raw_start)
            end = config.parse_position(raw_end)
            _check(start, end, node)
            yield node.pre, start, end


def _check(start, end, node: Element) -> None:
    if start > end:
        raise RegionError(
            f"element <{node.tag}> (pre {node.pre}) has start {start!r} "
            f"> end {end!r}")


@lockcheck.audit_lazy_stores(("_shredded", "_document", "_backing"))
class StoredDocument:
    """A document plus its derived structures, behind a storage seam.

    The shredded columns and region indexes are built on first use.
    Without a *backing* (the default ``memory`` backend) they are plain
    in-process arrays made from the DOM.  With one — a
    :class:`repro.storage.StoreReader` handed in by
    :func:`repro.storage.open_store` (then the DOM itself is lazy: the
    shred builds it from the mapped columns when nodes are asked for), or
    created on first use by *spilling* under the ``mmap`` backend
    (``REPRO_STORAGE=mmap``, or ``storage_backend=`` on the owning
    :class:`DocumentStore`/``Database``) — they are zero-copy mapped
    views of a store file: byte-identical answers, but shareable
    read-only pages that worker processes can re-open by path.  A
    structural update (:meth:`invalidate`) drops the backing; store
    files are immutable.
    """

    def __init__(self, document: Document | None = None, *,
                 storage_backend: str | None = None,
                 backing=None, uri: str | None = None):
        if document is None:
            meta = backing.meta(uri)
            self.uri: str = meta["uri"]
            self.doc_id: int = meta["doc_id"]
        else:
            self.uri = document.uri
            self.doc_id = document.doc_id
        self._document = document
        self._backing = backing
        self._shredded: ShreddedDocument | None = None
        self._region_indexes: dict[StandoffConfig, RegionIndex] = {}
        self.storage_backend = normalize_storage_backend(storage_backend)
        self._spill_path: str | None = None
        # Serializes the lazy builds below.  They are not merely
        # duplicated work when raced: both the shredder and
        # extract_regions() call document.renumber(), which *mutates*
        # the DOM's pre/size/level ranks while the other thread walks
        # them — under concurrent queries (the serving layer) two
        # first-touch threads could each build against a tree the
        # other was renumbering, or each map their own shred and so
        # build their own DOM (the node identity layer relies on one
        # instance per stored document).  Reentrant because the builds
        # nest (region_index -> document -> shredded).
        self._build_lock = lockcheck.new_rlock("StoredDocument._build_lock")

    @property
    def document(self) -> Document:
        # Double-checked: the unlocked hit is the hot path (a plain
        # attribute read of an already-built structure); only first
        # touch pays the lock.
        document = self._document
        if document is not None:
            return document
        with self._build_lock:
            if self._document is None:
                # Store-backed: the DOM is the shred's, which builds
                # it from the mapped columns.  Held here too, so it
                # outlives the shred an update drops.
                self._document = self.shredded.document
            return self._document

    @property
    def shredded(self) -> ShreddedDocument:
        shredded = self._shredded
        if shredded is not None:
            return shredded
        with self._build_lock:
            if self._shredded is None:
                backing = self._store_backing()
                if backing is None:
                    self._shredded = shred(self._document)
                else:
                    self._shredded = backing.shredded(
                        self.uri, document=self._document)
            return self._shredded

    def region_index(self, config: StandoffConfig = DEFAULT_CONFIG
                     ) -> RegionIndex:
        index = self._region_indexes.get(config)
        if index is not None:
            return index
        with self._build_lock:
            index = self._region_indexes.get(config)
            if index is None:
                # A store file persists the default config's table;
                # custom standoff configs always extract from the DOM.
                backing = self._store_backing() \
                    if config == DEFAULT_CONFIG else None
                if backing is not None and backing.has_regions(self.uri):
                    index = backing.region_index(self.uri)
                else:
                    index = RegionIndex.build(
                        extract_regions(self.document, config))
                lockcheck.assert_locked(self._build_lock,
                                        "StoredDocument._region_indexes")
                self._region_indexes[config] = index
            return index

    def _store_backing(self):
        """The store file behind the derived structures, if any; under
        the ``mmap`` backend a document without one is spilled first
        (:func:`repro.storage.spill_document`).  Callers hold
        ``_build_lock``; the lock is re-entrant, so the method still
        takes it itself — the stores below must never run unguarded.
        """
        with self._build_lock:
            if self._backing is None \
                    and self.storage_backend == STORAGE_MMAP:
                from repro import storage

                self._spill_path, self._backing = \
                    storage.spill_document(self._document)
            return self._backing

    def area_of_node(self, pre: int,
                     config: StandoffConfig = DEFAULT_CONFIG) -> Area | None:
        """The area of the node with the given pre rank, if annotated."""
        return self.region_index(config).area_of(pre)

    def invalidate(self) -> None:
        """Drop derived structures after a structural update.

        The DOM is renumbered; the shredded columns and all region
        indexes are rebuilt lazily on next use.  This is the
        *per-document* maintenance cost the paper's §3.3 design keeps
        local (contrast: the store-level global index rebuilds whole).
        The store file behind them is stale after an update: the
        document detaches from it, and a spill file is deleted (the
        next use spills afresh).
        """
        with self._build_lock:
            self.document.renumber()
            self._shredded = None
            self._region_indexes.clear()
            self._backing = None
            if self._spill_path is not None:
                try:
                    os.unlink(self._spill_path)
                except OSError:
                    pass
                self._spill_path = None


class DocumentStore:
    """All documents known to a database instance, keyed by URI."""

    def __init__(self, *, storage_backend: str | None = None) -> None:
        self._by_uri: dict[str, StoredDocument] = {}
        self._by_id: dict[int, StoredDocument] = {}
        self._next_id = 1
        #: bumped on every add/remove; global index caches key on it
        self.version = 0
        self._global_indexes: dict = {}
        self.storage_backend = normalize_storage_backend(storage_backend)

    def add(self, uri: str, xml: str | Document, *,
            keep_whitespace_text: bool = False) -> StoredDocument:
        """Parse (if given text) and register a document under *uri*."""
        if uri in self._by_uri:
            raise ReproError(f"document {uri!r} already stored")
        if isinstance(xml, Document):
            document = xml
            document.uri = uri
            document.doc_id = self._next_id
            document.renumber()
        else:
            document = parse_document(
                xml, uri=uri, doc_id=self._next_id,
                keep_whitespace_text=keep_whitespace_text)
        self._next_id += 1
        stored = StoredDocument(document,
                                storage_backend=self.storage_backend)
        self._by_uri[uri] = stored
        self._by_id[document.doc_id] = stored
        self.version += 1
        return stored

    def register(self, stored: StoredDocument) -> StoredDocument:
        """Register an externally constructed stored document.

        The seam :func:`repro.storage.open_store` uses: a store-backed
        document carries its uri/doc id from the store header, so
        registration stays O(1) — no parse, no shred.
        """
        uri = stored.uri
        if uri in self._by_uri:
            raise ReproError(f"document {uri!r} already stored")
        self._by_uri[uri] = stored
        self._by_id[stored.doc_id] = stored
        self._next_id = max(self._next_id, stored.doc_id + 1)
        self.version += 1
        return stored

    def remove(self, uri: str) -> None:
        stored = self._by_uri.pop(uri, None)
        if stored is None:
            raise ReproError(f"document {uri!r} not stored")
        del self._by_id[stored.doc_id]
        self.version += 1

    def get(self, uri: str) -> StoredDocument:
        try:
            return self._by_uri[uri]
        except KeyError:
            raise ReproError(f"document {uri!r} not stored") from None

    def by_id(self, doc_id: int) -> StoredDocument:
        try:
            return self._by_id[doc_id]
        except KeyError:
            raise ReproError(f"no document with id {doc_id}") from None

    def by_document(self, document: Document) -> StoredDocument | None:
        stored = self._by_id.get(document.doc_id)
        if stored is not None and stored.document is document:
            return stored
        return None

    def __contains__(self, uri: str) -> bool:
        return uri in self._by_uri

    def __iter__(self) -> Iterator[StoredDocument]:
        return iter(self._by_uri.values())

    def __len__(self) -> int:
        return len(self._by_uri)

    def uris(self) -> list[str]:
        return list(self._by_uri)

    def touch(self, uri: str) -> StoredDocument:
        """Record a structural update to *uri*: rebuild its derived
        structures lazily and invalidate the collection-global index."""
        stored = self.get(uri)
        stored.invalidate()
        self.version += 1
        return stored

    def region_indexes(self, config: StandoffConfig = DEFAULT_CONFIG
                       ) -> dict[int, "RegionIndex"]:
        """Per-fragment region indexes, keyed by doc id."""
        return {stored.doc_id: stored.region_index(config)
                for stored in self._by_uri.values()}

    def global_region_index(self, config: StandoffConfig = DEFAULT_CONFIG):
        """The collection-wide region index (paper §3.3 (ii)).

        Cached per (store version, config): any document add/remove
        invalidates the *whole* global index — exactly the maintenance
        cost the paper warns about (a per-document index would only
        rebuild locally).
        """
        from repro.core.global_index import GlobalRegionIndex

        key = (self.version, config)
        index = self._global_indexes.get(key)
        if index is None:
            self._global_indexes.clear()     # old versions are garbage
            index = GlobalRegionIndex(self.region_indexes(config))
            self._global_indexes[key] = index
        return index
