"""Document store: named documents, shredded columns, region indexes.

The store owns everything the engine needs per document:

* the shredded column representation (for Staircase Join and the
  element-name index) — for a document added as text, expat → columns,
  DOM on demand (:func:`~repro.xmldb.parser.shred_xml`);
* the DOM (for the tree-walking evaluator and serialization), built
  from the columns when a node is first asked for;
* the **region index** according to a
  :class:`~repro.config.StandoffConfig` (attribute or element
  representation, configurable names — paper §2): a ``start|end|id``
  table read off the shred's columns by :func:`extract_regions`, never
  off the DOM.

Because the region representation is a *run-time* setting (a query's
``declare option`` preamble may change it), region indexes are built
lazily per (document, config) pair and cached.

An update (:meth:`DocumentStore.insert`/:meth:`DocumentStore.delete`)
changes the DOM, renumbers it once, and publishes a *new* shred and new
region indexes spliced from the old ones (:mod:`repro.xmldb.splice`) —
the per-document maintenance §3.3 (ii) keeps local.  The old ones are
never changed, so a query holding them reads a consistent snapshot.
"""

from __future__ import annotations

import os
from functools import partial
from itertools import islice
from typing import Iterator

import numpy as np

from repro.exec import lockcheck
from repro.config import (
    DEFAULT_CONFIG,
    STORAGE_MMAP,
    StandoffConfig,
    normalize_storage_backend,
)
from repro.core.region import Area
from repro.core.region_index import RegionIndex, RegionTable
from repro.errors import RegionError, ReproError
from repro.xmldb.dom import Attr, Document, Element, Node, Text
from repro.xmldb.parser import shred_xml
from repro.xmldb.shred import ShreddedDocument, shred
from repro.xmldb.splice import RowMap, splice_region_table, splice_shred


def extract_regions(shredded: ShreddedDocument,
                    config: StandoffConfig = DEFAULT_CONFIG) -> RegionTable:
    """The region table of the fragment *shredded* encodes (paper §4.3),
    read off its columns in one pass: no DOM is built or walked.

    Under the attribute representation an element is an area-annotation
    when it carries the attributes named exactly ``config.start_name``
    and ``config.end_name``.  Under the element representation each
    ``<region>`` child of an element with a start or an end child
    element is one region of that element's area; a position is the
    string value of the first such child (its text rows, in pre
    order).  Half a region, an unparseable position and start > end
    raise :class:`RegionError` — the first in document order: silently
    ignoring them would turn data errors into empty query results.
    """
    return element_regions(shredded, config, None)


def element_regions(shredded: ShreddedDocument, config: StandoffConfig,
                    pres: np.ndarray | None) -> RegionTable:
    """:func:`extract_regions` restricted to the areas of the rows
    *pres* (all, for ``None``) — what an update's splice re-extracts."""
    parent, names = shredded.parent, (config.start_name, config.end_name)
    if config.uses_region_elements:
        # one row per <region> under an element, in the order the areas
        # are read: by annotated element, then region
        keys = _within(parent, shredded.elements_named(config.region_name),
                       pres)
        keys = keys[shredded.kind[parent[keys]] == Element.kind]
        keys = keys[np.argsort(parent[keys], kind="stable")]
        owners, text = parent[keys], partial(_strings, shredded)
        rows = [_within(parent, shredded.elements_named(name), keys)
                for name in names]
    else:
        # one row per element with a start or an end attribute
        rows = [_within(parent, shredded.attributes_named(name), pres)
                for name in names]
        keys = owners = np.union1d(parent[rows[0]], parent[rows[1]])
        text = shredded.values.strings_at
    starts, ends = (_first_child(keys, parent, r) for r in rows)
    some = (starts >= 0) | (ends >= 0)
    owners, starts, ends = owners[some], starts[some], ends[some]
    # The regions before the first half one are whole: check them
    # first, so the error raised is the first in document order.
    halves = np.flatnonzero((starts < 0) | (ends < 0))
    n = int(halves[0]) if len(halves) else len(owners)
    parse, starts, ends = config.parse_position, text(starts[:n]), \
        text(ends[:n])
    try:
        table = RegionTable(list(map(parse, starts)), list(map(parse, ends)),
                            owners[:n]) if n else RegionTable.from_rows([])
    except RegionError:             # raise the first one's, in order
        for owner, start, end in zip(owners.tolist(), starts, ends):
            start, end = parse(start), parse(end)
            if start > end:
                raise RegionError(
                    f"element <{shredded.name_of(owner)}> (pre {owner}) "
                    f"has start {start!r} > end {end!r}") from None
    if n < len(owners):
        tag = shredded.name_of(owners[n])
        raise RegionError(
            f"<{config.region_name}> under <{tag}> has only one of "
            f"<{config.start_name}>/<{config.end_name}>"
            if config.uses_region_elements else
            f"element <{tag}> (pre {owners[n]}) has only one of "
            f"@{config.start_name}/@{config.end_name}")
    return table


def _within(parent: np.ndarray, rows: np.ndarray,
            pres: np.ndarray | None) -> np.ndarray:
    """The *rows* whose parent is one of *pres* (that have one, for
    ``None``): a restricted pass touches only their rows."""
    owners = parent[rows]
    return rows[owners >= 0] if pres is None else rows[np.isin(owners, pres)]


def _first_child(keys: np.ndarray, parent: np.ndarray, rows: np.ndarray
                 ) -> np.ndarray:
    """Per key, the first of the ascending *rows* whose parent it is, or
    -1 (a sentinel parent past every key, of row -1, closes the list)."""
    heads, first = np.unique(np.append(parent[rows], np.iinfo(np.int64).max),
                             return_index=True)
    at = np.searchsorted(heads, keys)
    return np.where(heads[at] == keys, np.append(rows, -1)[first[at]], -1)


def _strings(shredded: ShreddedDocument, rows: np.ndarray) -> list[str]:
    """The string value of each element row: its subtree's text rows
    concatenated in pre order."""
    texts = shredded.pres_of_kind(Text.kind)
    lo, hi = np.searchsorted(texts, [rows, rows + shredded.size[rows]],
                             side="right")
    counts = hi - lo
    index = np.arange(int(counts.sum()), dtype=np.int64) \
        + np.repeat(lo - np.cumsum(counts) + counts, counts)
    strings = iter(shredded.values.strings_at(texts[index]))
    return ["".join(islice(strings, count)) for count in counts.tolist()]


@lockcheck.audit_lazy_stores(("_shredded", "_document", "_backing",
                              "_region_indexes", "_spill_path",
                              "_unspilled"))
class StoredDocument:
    """A document plus its derived structures, behind a storage seam.

    A document starts from its columns (*shredded*: parsed text) or
    from a DOM (*document*; its shred is built on first use), and each
    region index is built on first use from the shred's columns
    (:func:`extract_regions`).  A column-born document's DOM is lazy:
    the shred builds it from its columns when nodes are asked for.
    Without a *backing* (the default ``memory`` backend) the columns
    are plain in-process arrays.  With one — a
    :class:`repro.storage.StoreReader` handed in by
    :func:`repro.storage.open_store`, or
    created on first use by *spilling* under the ``mmap`` backend
    (``REPRO_STORAGE=mmap``, or ``storage_backend=`` on the owning
    :class:`DocumentStore`/``Database``) — they are zero-copy mapped
    views of a store file: byte-identical answers, but shareable
    read-only pages that worker processes can re-open by path.  A store
    file persists the default config's region table; any other config
    is extracted from the mapped columns, so no region index builds the
    DOM.

    An update (:meth:`insert`, :meth:`delete`) changes the DOM and
    splices new derived structures from the old ones
    (:mod:`repro.xmldb.splice`); :meth:`invalidate` drops them instead.
    Either way the document detaches from its store file: store files
    are immutable.
    """

    def __init__(self, document: Document | None = None, *,
                 shredded: ShreddedDocument | None = None,
                 storage_backend: str | None = None,
                 backing=None, uri: str | None = None):
        if backing is not None:
            meta = backing.meta(uri)
            self.uri: str = meta["uri"]
            self.doc_id: int = meta["doc_id"]
        else:
            source = document if shredded is None else shredded
            self.uri, self.doc_id = source.uri, source.doc_id
        self._document = document
        self._backing = backing
        self.storage_backend = normalize_storage_backend(storage_backend)
        spill = shredded is not None and self.storage_backend == STORAGE_MMAP
        self._shredded: ShreddedDocument | None = None if spill else shredded
        self._region_indexes: dict[StandoffConfig, RegionIndex] = {}
        self._spill_path: str | None = None
        #: Under the ``mmap`` backend, the shred (parsed, or spliced by
        #: an update) and default region table left for the next read
        #: to spill.
        self._unspilled: tuple[ShreddedDocument, RegionTable | None] \
            | None = (shredded, None) if spill else None
        # Serializes the lazy builds below and the updates, which
        # change the DOM and renumber it.  Raced first touches would
        # not merely duplicate work: under concurrent queries (the
        # serving layer) two threads could each map their own shred
        # and so build their own DOM, and the node identity layer
        # relies on one instance per stored document.  Reentrant
        # because the builds nest (region_index -> shredded, document
        # -> shredded).
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
                # Column-born (parsed or store-backed): the DOM is the
                # shred's, which builds it from its columns.  Held here
                # too, so it outlives the shred an update replaces.
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
                # any other is read off the (mapped) columns.  Either
                # way the shred is built first, so an update always has
                # one to re-extract a cached index's rows from.
                shredded = self.shredded
                backing = self._store_backing()
                if config == DEFAULT_CONFIG and backing is not None \
                        and backing.has_regions(self.uri):
                    index = backing.region_index(self.uri)
                else:
                    index = RegionIndex(extract_regions(shredded, config))
                lockcheck.assert_locked(self._build_lock,
                                        "StoredDocument._region_indexes")
                self._region_indexes[config] = index
            return index

    def _store_backing(self):
        """The store file behind the derived structures, if any; under
        the ``mmap`` backend a document without one is spilled first
        (:func:`repro.storage.spill_document`) — the columns an update
        spliced if there are any, else a fresh shred.  Callers hold
        ``_build_lock``; the lock is re-entrant, so the method still
        takes it itself — the stores below must never run unguarded.
        """
        with self._build_lock:
            if self._backing is None \
                    and self.storage_backend == STORAGE_MMAP:
                from repro import storage

                shredded, table = self._unspilled or (None, None)
                self._spill_path, self._backing = \
                    storage.spill_document(self._document, shredded, table)
                self._unspilled = None
            return self._backing

    def area_of_node(self, pre: int,
                     config: StandoffConfig = DEFAULT_CONFIG) -> Area | None:
        """The area of the node with the given pre rank, if annotated."""
        return self.region_index(config).area_of(pre)

    # -- updates -------------------------------------------------------------

    def insert(self, placements: list[tuple[Element, list[Node]]]) -> None:
        """Append each ``(element, nodes)`` placement's *nodes* (fresh,
        parentless) as the element's last children, in order.

        The DOM is renumbered once; the shred and the cached region
        indexes are spliced from the ones before (:meth:`_splice`).
        """
        with self._build_lock:
            document = self.document
            n_old = document.node_count
            for parent, nodes in placements:
                for node in nodes:
                    parent.append(node)
            document.renumber()
            fresh = [(nodes[0].pre, nodes[-1].pre + nodes[-1].size + 1)
                     for _parent, nodes in placements if nodes]
            self._splice(RowMap(n_old, document.node_count, [], fresh),
                         [parent for parent, _nodes in placements])

    def delete(self, victims: list[Node]) -> int:
        """Detach every victim (an attribute from its element, any other
        node from its parent's children) that still has a parent.

        Returns how many were detached — a victim inside another counts
        too.  The DOM is renumbered once and the derived structures are
        spliced, as for :meth:`insert`.
        """
        with self._build_lock:
            document = self.document
            n_old = document.node_count
            cut, parents = [], []
            for node in victims:
                parent = node.parent
                if parent is None:
                    continue
                cut.append((node.pre, node.pre + node.size + 1))
                parents.append((parent, parent.pre))
                if isinstance(node, Attr):
                    parent.attributes.remove(node)
                else:
                    parent.children.remove(node)
                node.parent = None
            if cut:
                document.renumber()
                rows = RowMap(n_old, document.node_count, cut, [])
                self._splice(rows, [parent for parent, pre in parents
                                    if rows.new_of_old[pre] >= 0])
            return len(cut)

    def _splice(self, rows: RowMap, parents: list[Node]) -> None:
        """Publish the derived structures of the renumbered DOM, spliced
        from the current ones along *rows*; *parents* are the kept
        nodes the update added children to or removed nodes from.

        Region rows are re-extracted from the new shred
        (:func:`element_regions`) only for the fresh elements and for
        the elements whose area the update can change: the *parents*
        (an attribute-form area is its element's own attributes) or,
        under the element form, their ancestors too (an area is read
        from the element's descendants).  An index whose re-extraction
        raises is dropped, so the next read rebuilds it and raises
        there, as it would have without the splice.  Structures not
        built yet stay unbuilt (a cached index implies a shred).
        """
        document = self._document
        parents = list({id(node): node for node in parents}.values())
        touched: dict[int, Node] = {}
        for node in parents:
            while node is not None and id(node) not in touched:
                touched[id(node)] = node
                node = node.parent
        lineage = list(touched.values())
        fresh_nodes = list(map(document.node_by_pre, rows.fresh.tolist()))
        old = self._shredded if self._unspilled is None \
            else self._unspilled[0]
        shredded = None if old is None else splice_shred(
            old, document, rows, fresh_nodes, lineage)
        fresh = [node.pre for node in fresh_nodes if isinstance(node, Element)]
        indexes = {}
        for config, index in self._region_indexes.items():
            nodes = lineage if config.uses_region_elements else parents
            redone = np.asarray([node.pre for node in nodes] + fresh,
                                dtype=np.int64)
            try:
                entries = element_regions(shredded, config, redone)
            except RegionError:
                continue
            indexes[config] = RegionIndex(splice_region_table(
                index.table, rows, redone, entries))
        with self._build_lock:
            self._detach()
            if self.storage_backend == STORAGE_MMAP \
                    and shredded is not None:
                default = indexes.pop(DEFAULT_CONFIG, None)
                self._unspilled = (shredded, None if default is None
                                   else default.table)
                self._shredded = None
            else:
                self._shredded = shredded
            self._region_indexes = indexes

    def invalidate(self) -> None:
        """Drop every derived structure: the full-drop hook for a DOM
        changed by hand (the API's updates splice instead).

        The DOM is renumbered; the shredded columns are rebuilt from it
        lazily on next use, and the region indexes from them.  The store
        file behind them is stale: the document detaches from it, and a
        spill file is deleted (the next use spills afresh).
        """
        with self._build_lock:
            self.document.renumber()
            self._shredded = None
            self._unspilled = None
            self._region_indexes = {}
            self._detach()

    def _detach(self) -> None:
        """Leave the store file behind (deleting it if it is a spill)."""
        with self._build_lock:
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
        """Register a document under *uri*: text is shredded straight
        into columns (:func:`~repro.xmldb.parser.shred_xml`; the DOM is
        built from them on demand), a DOM is numbered and kept."""
        if uri in self._by_uri:
            raise ReproError(f"document {uri!r} already stored")
        if isinstance(xml, Document):
            xml.uri, xml.doc_id = uri, self._next_id
            xml.renumber()
            source = {"document": xml}
        else:
            source = {"shredded": shred_xml(
                xml, uri=uri, doc_id=self._next_id,
                keep_whitespace_text=keep_whitespace_text)}
        stored = StoredDocument(**source,
                                storage_backend=self.storage_backend)
        self._next_id += 1
        self._by_uri[uri] = stored
        self._by_id[stored.doc_id] = stored
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

    def by_shred(self, shredded: ShreddedDocument
                 ) -> StoredDocument | None:
        """The stored document whose current shred *shredded* is, or
        ``None`` (a constructed fragment's shred).  Reads the shred's
        doc id, never its DOM, so a store-backed document is found from
        its columns alone."""
        stored = self._by_id.get(shredded.doc_id)
        if stored is not None and stored._shredded is shredded:
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

    def insert(self, uri: str,
               placements: list[tuple[Element, list[Node]]]) -> None:
        """Append nodes under elements of *uri*
        (:meth:`StoredDocument.insert`: its derived structures are
        spliced) and invalidate the collection-global index."""
        self.get(uri).insert(placements)
        self.version += 1

    def delete(self, uri: str, victims: list[Node]) -> int:
        """Detach nodes of *uri* (:meth:`StoredDocument.delete`) and,
        if any went, invalidate the collection-global index."""
        deleted = self.get(uri).delete(victims)
        if deleted:
            self.version += 1
        return deleted

    def touch(self, uri: str) -> StoredDocument:
        """Record a structural update made to *uri*'s DOM by hand: drop
        its derived structures for the next read to rebuild from the
        DOM (:meth:`StoredDocument.invalidate`) and invalidate the
        collection-global index.  :meth:`insert` and :meth:`delete`
        need no touch."""
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
