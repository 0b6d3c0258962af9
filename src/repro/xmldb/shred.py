"""Relational shredding of XML documents (MonetDB/Pathfinder style).

A shredded document is a set of columns over pre ranks::

    pre | size | level | kind | name | value

plus a name dictionary and an element-name index (name -> sorted pre
array) which serves as MonetDB/XQuery's "element index" for candidate
pushdown into StandOff steps.  Attributes appear as rows of kind
ATTRIBUTE numbered directly after their owner element, with their owner
recoverable through the ``parent`` column.  The encoding is lossless:
:func:`unshred` builds the document back from the columns, which is how
a store file (:mod:`repro.storage`), holding columns only, hands out
nodes.

All columns are frozen (``writeable=False``) at construction: a stored
document's shred serves every query, and — via :mod:`repro.storage` —
every *process* mapping one store file, so nothing downstream may
mutate a column in place.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.exec import lockcheck
from repro.errors import StorageFormatError
from repro.xmldb.dom import (
    Attr,
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
    renumber_fragment,
)
from repro.xmldb.names import is_qname


def freeze(*arrays: np.ndarray) -> None:
    """Mark arrays physically immutable.

    Setting ``writeable=False`` is always permitted (unlike setting it
    back to True), including on views and on already-read-only memmaps.
    """
    for arr in arrays:
        arr.flags.writeable = False


class StringHeap:
    """Read-only ``pre -> str`` mapping over three frozen columns.

    The storage representation of :attr:`ShreddedDocument.values`: the
    pre ranks that carry a value (sorted), offsets into a UTF-8 heap,
    and the heap bytes.  Strings decode lazily per lookup, so opening a
    memory-mapped store never touches the heap pages.
    """

    __slots__ = ("pres", "offsets", "heap")

    def __init__(self, pres: np.ndarray, offsets: np.ndarray,
                 heap: np.ndarray):
        self.pres = pres
        self.offsets = offsets
        self.heap = heap

    @classmethod
    def from_dict(cls, values: dict[int, str]) -> "StringHeap":
        pres = np.asarray(sorted(values), dtype="<i8")
        blobs = [values[int(p)].encode("utf-8") for p in pres]
        offsets = np.zeros(len(blobs) + 1, dtype="<i8")
        if blobs:
            np.cumsum([len(b) for b in blobs], out=offsets[1:])
        heap = np.frombuffer(b"".join(blobs), dtype=np.uint8)
        freeze(pres, offsets, heap)
        return cls(pres, offsets, heap)

    def __len__(self) -> int:
        return len(self.pres)

    def get(self, pre: int, default: str | None = None) -> str | None:
        i = int(np.searchsorted(self.pres, pre))
        if i == len(self.pres) or self.pres[i] != pre:
            return default
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        return bytes(self.heap[lo:hi]).decode("utf-8")

    def strings_at(self, pres: np.ndarray) -> list[str]:
        """The values of the given (sorted) pre ranks: one batched
        lookup, then one slice decode per row."""
        index = np.searchsorted(self.pres, pres)
        found = index < len(self.pres)
        if not found.all() or not np.array_equal(self.pres[index], pres):
            missing = pres[~found] if not found.all() \
                else pres[self.pres[index] != pres]
            raise StorageFormatError(
                f"row {int(missing[0])}: value-bearing row has no heap "
                f"entry")
        heap = memoryview(self.heap)
        bounds = zip(self.offsets[index].tolist(),
                     self.offsets[index + 1].tolist())
        try:
            return [str(heap[lo:hi], "utf-8") for lo, hi in bounds]
        except UnicodeDecodeError:
            raise StorageFormatError(
                "attribute value is not valid UTF-8") from None

    def strings(self) -> list[str]:
        """Every value in :attr:`pres` order, decoded in one pass."""
        raw = self.heap.tobytes()
        bounds = self.offsets.tolist()
        if len(bounds) != len(self.pres) + 1:
            raise StorageFormatError(
                f"value heap has {len(bounds)} offsets for "
                f"{len(self.pres)} rows")
        strings = []
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            try:
                strings.append(raw[lo:hi].decode("utf-8"))
            except UnicodeDecodeError:
                raise StorageFormatError(
                    f"row {int(self.pres[i])}: value is not valid "
                    f"UTF-8") from None
        return strings


class AttributeColumn:
    """The attribute rows of one local name, dictionary-encoded.

    ``owners`` holds the owning element's pre rank per row (ascending:
    attributes are numbered right after their element), ``codes`` the
    row's index into ``distinct``, the sorted distinct values — so a
    string compare against a literal is one bisect plus an integer
    compare on ``codes``.  Frozen once built; the numeric view of
    ``distinct`` is added on first use by :meth:`numbers`.
    """

    __slots__ = ("owners", "codes", "distinct", "_numbers", "_build_lock")

    def __init__(self, owners: np.ndarray, texts: list[str]):
        distinct = sorted(set(texts))
        code_of = {text: code for code, text in enumerate(distinct)}
        self.owners = owners
        self.codes = np.fromiter((code_of[text] for text in texts),
                                 dtype=np.int64, count=len(texts))
        self.distinct = distinct
        self._numbers: tuple[np.ndarray, np.ndarray] | None = None
        self._build_lock = lockcheck.new_lock("AttributeColumn._build_lock")
        freeze(self.owners, self.codes)

    def spans(self, pres: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per pre rank, the ``[lo, hi)`` rows it owns."""
        return (np.searchsorted(self.owners, pres, side="left"),
                np.searchsorted(self.owners, pres, side="right"))

    def numbers(self, cast) -> tuple[np.ndarray, np.ndarray]:
        """``(value, failed)`` per distinct value: ``cast(text)`` as
        float64, and where it returned None (the cast fails) a True in
        ``failed`` (the value is then NaN)."""
        numbers = self._numbers
        if numbers is None:
            with self._build_lock:
                if self._numbers is None:
                    cast_values = [cast(text) for text in self.distinct]
                    n = len(cast_values)
                    failed = np.fromiter((v is None for v in cast_values),
                                         dtype=bool, count=n)
                    values = np.fromiter(
                        (np.nan if v is None else v for v in cast_values),
                        dtype=np.float64, count=n)
                    freeze(values, failed)
                    lockcheck.assert_locked(self._build_lock,
                                            "AttributeColumn._numbers")
                    self._numbers = (values, failed)
                numbers = self._numbers
        return numbers


def _attribute_column(shredded: "ShreddedDocument",
                      local: str) -> AttributeColumn:
    """Build the :class:`AttributeColumn` of the attributes whose local
    name is *local* — the attribute name test's matching rule."""
    ids = [nid for nid, name in enumerate(shredded.names)
           if name.rpartition(":")[2] == local]
    rows = np.flatnonzero((shredded.kind == Attr.kind)
                          & np.isin(shredded.name,
                                    np.asarray(ids, dtype=np.int32)))
    owners = np.asarray(shredded.parent[rows], dtype=np.int64)
    if np.any(owners[1:] < owners[:-1]):
        raise StorageFormatError(
            f"attribute rows of @{local} are not in owner order")
    values = shredded.values
    if isinstance(values, StringHeap):
        texts = values.strings_at(rows)
    else:
        texts = [values[pre] for pre in rows.tolist()]
    return AttributeColumn(owners, texts)


class ShreddedDocument:
    """Column representation of one fragment; pre rank is the row number.

    Built from a stored :class:`Document` (the classical shred), from a
    constructed orphan subtree via :func:`shred_fragment`, or — through
    :meth:`from_columns` — straight from previously materialized columns
    (typically ``np.memmap`` views of a store file, in which case the
    DOM does not exist yet and is built from the columns by
    :func:`unshred` only if a caller asks for nodes).  ``node_by_pre``
    maps result pre ranks back to DOM nodes for any origin.
    """

    #: Guards the one lazy DOM build of a column-backed shred; only
    #: :meth:`from_columns` creates it.
    _build_lock = None

    def __init__(self, document: Document | None, *,
                 nodes: list[Node] | None = None,
                 root: Node | None = None):
        if nodes is None:
            document.renumber()
            nodes = document.all_nodes()
        n = len(nodes)
        self._document = document
        #: The fragment root: the document itself, or the orphan
        #: subtree's top node for constructed fragments.
        self._root = root if root is not None else document
        #: ``(store path, uri)`` once the columns are store-backed —
        #: the handle worker processes use to re-open the same file.
        self._store_ref: tuple[str, str] | None = None
        # Stored documents already cache their pre -> node list; only
        # orphan fragments need the snapshot kept here.
        self._nodes = None if document is not None else nodes
        self.pre = np.arange(n, dtype=np.int64)
        self.size = np.fromiter((node.size for node in nodes),
                                dtype=np.int64, count=n)
        self.level = np.fromiter((node.level for node in nodes),
                                 dtype=np.int64, count=n)
        self.kind = np.fromiter((node.kind for node in nodes),
                                dtype=np.int8, count=n)
        parent = np.empty(n, dtype=np.int64)
        names: list[str] = []
        name_ids: dict[str, int] = {}
        name_col = np.full(n, -1, dtype=np.int32)
        values: dict[int, str] = {}

        for i, node in enumerate(nodes):
            parent[i] = node.parent.pre if node.parent is not None else -1
            name = None
            if isinstance(node, Element):
                name = node.tag
            elif isinstance(node, Attr):
                name = node.name
                values[i] = node.value
            elif isinstance(node, (Text, Comment)):
                values[i] = node.text
            elif isinstance(node, ProcessingInstruction):
                name = node.target
                values[i] = node.data
            if name is not None:
                nid = name_ids.setdefault(name, len(name_ids))
                if nid == len(names):
                    names.append(name)
                name_col[i] = nid
        self.parent = parent
        self.names = names
        self._name_ids = name_ids
        self.name = name_col
        self.values = values
        freeze(self.pre, self.size, self.level, self.kind, self.parent,
               self.name)
        self._attr_columns: dict[str, AttributeColumn] = {}
        self._columns_lock = lockcheck.new_lock(
            "ShreddedDocument._columns_lock")

        # element-name index: name id -> sorted pre array
        element_mask = self.kind == Element.kind
        self._kind_pres: dict[int, np.ndarray] = {}
        self._non_attribute: np.ndarray | None = None
        self._element_index: dict[int, np.ndarray] = {}
        if element_mask.any():
            el_pres = self.pre[element_mask]
            el_names = name_col[element_mask]
            order = np.argsort(el_names, kind="stable")
            el_pres, el_names = el_pres[order], el_names[order]
            boundaries = np.flatnonzero(np.diff(el_names)) + 1
            for chunk, nid in zip(
                    np.split(el_pres, boundaries),
                    el_names[np.concatenate(([0], boundaries))]):
                entry = np.sort(chunk)
                freeze(entry)
                self._element_index[int(nid)] = entry

    @classmethod
    def from_columns(cls, *, pre: np.ndarray, size: np.ndarray,
                     level: np.ndarray, kind: np.ndarray,
                     parent: np.ndarray, name: np.ndarray,
                     names: list[str], values,
                     element_index: dict[int, np.ndarray],
                     document: Document | None = None,
                     doc_id: int = 0,
                     store_ref: tuple[str, str] | None = None
                     ) -> "ShreddedDocument":
        """Rebuild a shred from previously materialized columns.

        The storage layer's constructor: no DOM walk, no index build.
        *values* is a :class:`StringHeap` (or a plain dict); when
        *document* is absent it is built from these columns (numbered
        *doc_id*, named by *store_ref*'s uri) the first time node
        decoding is requested.
        """
        self = object.__new__(cls)
        self._document = document
        self._root = document
        self._doc_id = doc_id
        self._build_lock = lockcheck.new_lock(
            "ShreddedDocument._build_lock")
        self._store_ref = store_ref
        self._nodes = None
        self.pre = pre
        self.size = size
        self.level = level
        self.kind = kind
        self.parent = parent
        self.name = name
        self.names = list(names)
        self._name_ids = {nm: i for i, nm in enumerate(self.names)}
        self.values = values
        self._kind_pres = {}
        self._non_attribute = None
        self._element_index = dict(element_index)
        self._attr_columns = {}
        self._columns_lock = lockcheck.new_lock(
            "ShreddedDocument._columns_lock")
        freeze(self.pre, self.size, self.level, self.kind, self.parent,
               self.name)
        return self

    @property
    def document(self) -> Document | None:
        """The owning document (``None`` for an orphan fragment).  A
        column-backed shred builds it on first use — the columns never
        need it, only node decoding does — and every caller gets that
        one instance: double-checked, the hit is a plain attribute
        read."""
        document = self._document
        if document is None and self._build_lock is not None:
            with self._build_lock:
                if self._document is None:
                    lockcheck.assert_locked(self._build_lock,
                                            "ShreddedDocument._document")
                    uri = self._store_ref[1] if self._store_ref else ""
                    self._document = unshred(self, uri=uri,
                                             doc_id=self._doc_id)
                document = self._document
        return document

    @property
    def root(self) -> Node | None:
        return self._root if self._root is not None else self.document

    @property
    def store_ref(self) -> tuple[str, str] | None:
        """``(store path, uri)`` when the columns are mmap-backed."""
        return self._store_ref

    def __len__(self) -> int:
        return len(self.pre)

    def node_by_pre(self, pre: int) -> Node:
        """The DOM node with the given pre rank (any fragment origin)."""
        if self._nodes is not None:
            return self._nodes[pre]
        return self.document.node_by_pre(pre)

    def name_of(self, pre: int) -> str | None:
        nid = self.name[pre]
        return self.names[nid] if nid >= 0 else None

    def value_of(self, pre: int) -> str | None:
        return self.values.get(int(pre))

    def elements_named(self, tag: str) -> np.ndarray:
        """Sorted pre ranks of elements with the given tag (element index)."""
        nid = self._name_ids.get(tag)
        if nid is None:
            return np.empty(0, dtype=np.int64)
        return self._element_index.get(nid, np.empty(0, dtype=np.int64))

    def all_element_pres(self) -> np.ndarray:
        """Sorted pre ranks of all element nodes."""
        return self.pre[self.kind == Element.kind]

    def elements_matching(self, name: str) -> np.ndarray:
        """Sorted pre ranks of the elements a *name test* matches.

        A name test accepts an element whenever the local names agree,
        so the pool is the union of the element-index entries sharing
        the test's local name — one entry in the common unprefixed
        case.  The single pool-resolution routine shared by the bulk
        evaluator and the process-pool executor's workers: both sides
        must derive byte-identical pools from the same columns.
        """
        local = name.rpartition(":")[2]
        chunks = [self.elements_named(tag) for tag in self.names
                  if tag.rpartition(":")[2] == local]
        chunks = [c for c in chunks if len(c)]
        if not chunks:
            return self.elements_named(name)
        if len(chunks) == 1:
            return chunks[0]
        return np.sort(np.concatenate(chunks))

    def pres_of_kind(self, kind: int) -> np.ndarray:
        """Sorted pre ranks of the nodes of one kind (cached)."""
        cached = self._kind_pres.get(kind)
        if cached is None:
            cached = self.pre[self.kind == kind]
            freeze(cached)
            self._kind_pres[kind] = cached
        return cached

    def non_attribute_pres(self) -> np.ndarray:
        """Sorted pre ranks of all non-attribute nodes (cached) — the
        ``node()`` candidate pool of the tree axes, where attributes are
        never principal nodes."""
        if self._non_attribute is None:
            pool = self.pre[self.kind != Attr.kind]
            freeze(pool)
            self._non_attribute = pool
        return self._non_attribute

    def attribute_column(self, local: str) -> AttributeColumn:
        """The dictionary-encoded rows of the attributes an ``@local``
        name test matches (built on first use, then cached with the
        shred — an update drops both)."""
        column = self._attr_columns.get(local)
        if column is None:
            with self._columns_lock:
                column = self._attr_columns.get(local)
                if column is None:
                    column = _attribute_column(self, local)
                    lockcheck.assert_locked(
                        self._columns_lock,
                        "ShreddedDocument._attr_columns")
                    self._attr_columns[local] = column
        return column

    def post(self) -> np.ndarray:
        """Post-order ranks derived from pre/size (pre + size)."""
        return self.pre + self.size


def shred(document: Document) -> ShreddedDocument:
    """Shred a document into its column representation."""
    return ShreddedDocument(document)


def unshred(shredded: ShreddedDocument, *, uri: str = "",
            doc_id: int = 0) -> Document:
    """Build the numbered document a column set encodes — the inverse
    of :func:`shred`, in one forward pass.

    Kind + level in pre order give the nesting (a row's parent is the
    open container one level up), names and values come from the
    dictionary and the heap, and pre/size/level and the ``node_by_pre``
    list are taken from the columns as they stand, so there is no
    ``renumber()`` pass and the DOM agrees with the columns the kernels
    read.  Columns that do not encode a document — they may come from
    a damaged or hostile store file, whose blobs are not checksummed at
    open — raise :class:`StorageFormatError` naming the row.
    """
    path = shredded.store_ref[0] if shredded.store_ref else None
    where = f"document {uri!r}" + (f" of store {path!r}" if path else "")

    def bad(row, why: str) -> StorageFormatError:
        return StorageFormatError(f"{where}: row {int(row)} {why}")

    element, attribute, pi = (Element.kind, Attr.kind,
                              ProcessingInstruction.kind)
    leaves = {Text.kind: Text, Comment.kind: Comment,
              pi: ProcessingInstruction, attribute: Attr}
    kind, name, names = shredded.kind, shredded.name, shredded.names
    lengths = {len(column) for column in (
        kind, name, shredded.level, shredded.size, shredded.parent)}
    if len(lengths) != 1:
        raise StorageFormatError(
            f"{where}: columns disagree on the row count {lengths}")
    if not len(kind) or kind[0] != Document.kind or shredded.level[0]:
        raise bad(0, "is not a document node at level 0")
    rows = 1 + np.flatnonzero(~np.isin(kind[1:], [element, *leaves]))
    if len(rows):
        raise bad(rows[0], f"has unknown node kind {kind[rows[0]]}")
    named = np.isin(kind, [element, attribute, pi])
    rows = np.flatnonzero(named & ((name < 0) | (name >= len(names))))
    if len(rows):
        raise bad(rows[0], f"has name id {name[rows[0]]}, outside the "
                           f"{len(names)}-entry dictionary")
    for nid, entry in enumerate(names):
        if not (isinstance(entry, str) and is_qname(entry)):
            rows = np.flatnonzero(named & (name == nid))
            if len(rows):
                raise bad(rows[0], f"is named {entry!r} (dictionary "
                                   f"entry {nid}), which is not a QName")
    values = shredded.values
    if isinstance(values, StringHeap):
        value_pres = values.pres.tolist()
        try:
            strings = values.strings()
        except StorageFormatError as exc:
            raise StorageFormatError(f"{where}: {exc}") from None
    else:
        value_pres = sorted(values)
        strings = [values[pre] for pre in value_pres]
    value_pres.append(-1)           # sentinel: no heap row left

    kinds, name_ids = kind.tolist(), name.tolist()
    levels, sizes = shredded.level.tolist(), shredded.size.tolist()
    parents = shredded.parent.tolist()
    document = Document(uri, doc_id)
    document.pre, document.size, document.level = 0, sizes[0], 0
    nodes: list[Node] = [document]
    open_at: list = [document]      # open_at[l]: open container at level l
    cursor = 0                      # next unread heap row
    for pre in range(1, len(kinds)):
        level = levels[pre]
        if not 1 <= level <= len(open_at):
            raise bad(pre, f"is at level {level} with no open parent "
                           f"at level {level - 1}")
        del open_at[level:]
        parent = open_at[-1]
        if parents[pre] != parent.pre:
            raise bad(pre, f"records parent {parents[pre]} but nests "
                           f"under row {parent.pre}")
        if kinds[pre] == element:
            node = Element.__new__(Element)
            node.tag = names[name_ids[pre]]
            node.attributes = []
            node._children = []
            parent._children.append(node)
            open_at.append(node)
        else:
            if value_pres[cursor] != pre:
                raise bad(pre, "carries a value but has no heap row")
            value = strings[cursor]
            cursor += 1
            cls = leaves[kinds[pre]]
            node = cls.__new__(cls)
            if cls is Attr:
                if parent.kind != element or parent._children:
                    raise bad(pre, "is an attribute that does not "
                                   "directly follow its element")
                node.name, node.value = names[name_ids[pre]], value
                parent.attributes.append(node)
            else:
                if cls is ProcessingInstruction:
                    node.target, node.data = names[name_ids[pre]], value
                else:
                    node.text = value
                parent._children.append(node)
        node.parent = parent
        node.pre, node.size, node.level = pre, sizes[pre], level
        nodes.append(node)
    if value_pres[cursor] != -1:
        raise bad(value_pres[cursor], "has a heap row but is not a "
                                      "value-bearing node")
    document._nodes_by_pre = nodes
    return document


def fragment_fingerprint(nodes: list[Node]) -> str:
    """Content hash of a fragment's pre-order node list.

    Hashes the per-node ``(kind, level, name, value)`` columns with
    length-prefixed string payloads (``-1`` marks an absent field), an
    injective encoding: the length columns split the concatenated
    payload back into per-node strings uniquely.  Kind + level in pre
    order determine the tree shape — the parent of any node is the
    nearest preceding node one level up — so two fragments with equal
    fingerprints shred to identical columns.  That makes it the
    structural equality the round-trip tests compare with (a document
    rebuilt from its columns or a store file against the original).
    Serialized XML would not do: ``<a>xy</a>`` serializes identically
    for one text node ``"xy"`` and adjacent ``"x"``/``"y"`` nodes,
    which shred differently.
    """
    element, attr, text, comment, pi = (Element.kind, Attr.kind,
                                        Text.kind, Comment.kind,
                                        ProcessingInstruction.kind)
    kinds = [node.kind for node in nodes]
    names = [node.tag if k == element else node.name if k == attr
             else node.target if k == pi else None
             for node, k in zip(nodes, kinds)]
    values = [node.text if k == text or k == comment
              else node.value if k == attr
              else node.data if k == pi else None
              for node, k in zip(nodes, kinds)]
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.asarray([len(nodes)] + kinds,
                             dtype=np.int64).tobytes())
    digest.update(np.asarray([node.level for node in nodes],
                             dtype=np.int64).tobytes())
    for column in (names, values):
        digest.update(np.asarray(
            [-1 if s is None else len(s) for s in column],
            dtype=np.int64).tobytes())
        digest.update("".join(
            s for s in column if s is not None).encode("utf-8"))
    return digest.hexdigest()


def shred_fragment(root: Node) -> ShreddedDocument:
    """Shred a constructed fragment (an orphan subtree) on demand.

    Document roots go through the classical :func:`shred`; orphan
    subtrees are numbered by the shared
    :func:`~repro.xmldb.dom.renumber_fragment` — idempotent with the
    numbering the evaluator's fragment constructor already assigned —
    and the node list in pre order backs
    :meth:`ShreddedDocument.node_by_pre`.
    """
    if isinstance(root, Document):
        return shred(root)
    return ShreddedDocument(None, nodes=renumber_fragment(root),
                            root=root)
