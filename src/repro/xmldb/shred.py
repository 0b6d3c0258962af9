"""Relational shredding of XML documents (MonetDB/Pathfinder style).

A shredded document is a set of columns over pre ranks::

    pre | size | level | kind | name | value

plus a name dictionary and an element-name index (name -> sorted pre
array) which serves as MonetDB/XQuery's "element index" for candidate
pushdown into StandOff steps.  Attributes appear as rows of kind
ATTRIBUTE numbered directly after their owner element, with their owner
recoverable through the ``parent`` column.

There is one layout, the one a store file (:mod:`repro.storage`)
holds: the values are a UTF-8 :class:`StringHeap` and the element index
is an :class:`ElementIndex` CSR triple, whether the parser built them
from expat events (:func:`repro.xmldb.parser.shred_xml`: expat →
columns, DOM on demand), :func:`shred` from a DOM or a store file maps
them.  The encoding is lossless: :func:`unshred` builds the document
back from the columns, which is how a parsed document and a store file,
holding columns only, hand out nodes.

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

    The one representation of :attr:`ShreddedDocument.values`, in
    memory and in a store file alike: the pre ranks that carry a value
    (sorted), offsets into a UTF-8 heap, and the heap bytes.  Strings
    decode lazily per lookup, so opening a memory-mapped store never
    touches the heap pages.
    """

    __slots__ = ("pres", "offsets", "heap")

    def __init__(self, pres: np.ndarray, offsets: np.ndarray,
                 heap: np.ndarray):
        self.pres = pres
        self.offsets = offsets
        self.heap = heap

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


def _string_heap(pres: list[int], strings: list[str]) -> StringHeap:
    """The heap of *strings* (the values of rows *pres*, ascending),
    encoded in one batched pass: one join, one encode, and character
    offsets turned into byte offsets only when a string is not ASCII."""
    text = "".join(strings)
    heap = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    offsets = np.zeros(len(strings) + 1, dtype="<i8")
    np.cumsum(np.fromiter(map(len, strings), dtype=np.int64,
                          count=len(strings)), out=offsets[1:])
    if len(heap) != len(text):
        chars = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
        widths = 1 + (chars >= 0x80) + (chars >= 0x800) \
            + (chars >= 0x10000)
        byte_at = np.zeros(len(chars) + 1, dtype="<i8")
        np.cumsum(widths, out=byte_at[1:])
        offsets = byte_at[offsets]
    return StringHeap(np.asarray(pres, dtype="<i8"), offsets, heap)


_NO_PRES = np.empty(0, dtype=np.int64)
freeze(_NO_PRES)


class ElementIndex:
    """The element-name index as the CSR triple a store file holds.

    ``nids`` (``<i4``, ascending) are the name ids of at least one
    element, and the elements named ``nids[i]`` are
    ``pres[offsets[i]:offsets[i + 1]]`` in document order — the
    MonetDB/XQuery element index that name tests push down as
    candidate pools.
    """

    __slots__ = ("nids", "offsets", "pres")

    def __init__(self, nids: np.ndarray, offsets: np.ndarray,
                 pres: np.ndarray):
        self.nids = nids
        self.offsets = offsets
        self.pres = pres

    def pres_of(self, nid: int) -> np.ndarray:
        """Sorted pre ranks of the elements named *nid*."""
        i = int(np.searchsorted(self.nids, nid))
        if i == len(self.nids) or self.nids[i] != nid:
            return _NO_PRES
        return self.pres[self.offsets[i]:self.offsets[i + 1]]


class AttributeColumn:
    """The attribute rows of one local name, dictionary-encoded.

    ``rows`` holds the attribute rows' pre ranks and ``owners`` the
    owning element's pre rank per row (both ascending: attributes are
    numbered right after their element), ``codes`` the row's index
    into ``distinct``, the sorted distinct values — so a string compare
    against a literal is one bisect plus an integer compare on
    ``codes``.  Frozen once built; the numeric view of ``distinct`` is
    added on first use by :meth:`numbers`.
    """

    __slots__ = ("rows", "owners", "codes", "distinct", "_numbers",
                 "_build_lock")

    def __init__(self, rows: np.ndarray, owners: np.ndarray,
                 codes: np.ndarray, distinct: list[str]):
        self.rows = rows
        self.owners = owners
        self.codes = codes
        self.distinct = distinct
        self._numbers: tuple[np.ndarray, np.ndarray] | None = None
        self._build_lock = lockcheck.new_lock("AttributeColumn._build_lock")
        freeze(self.rows, self.owners, self.codes)

    @classmethod
    def encode(cls, rows: np.ndarray, owners: np.ndarray,
               texts: list[str]) -> "AttributeColumn":
        """The column of the rows whose values are *texts*."""
        distinct = sorted(set(texts))
        code_of = {text: code for code, text in enumerate(distinct)}
        return cls(rows, owners,
                   np.fromiter((code_of[text] for text in texts),
                               dtype=np.int64, count=len(texts)),
                   distinct)

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
    return AttributeColumn.encode(rows, owners,
                                  shredded.values.strings_at(rows))


@lockcheck.audit_lazy_stores(("_document", "_nodes"))
class ShreddedDocument:
    """Column representation of one fragment; pre rank is the row number.

    One constructor takes the columns in the layout a store file holds
    them: the six structural columns, the name dictionary, the values
    as a :class:`StringHeap` and the element-name index as an
    :class:`ElementIndex`.  :func:`repro.xmldb.parser.shred_xml` builds
    those arrays from expat events and
    :meth:`repro.storage.StoreReader.shredded` hands over the
    ``np.memmap`` views of a store file; in both cases the DOM does not
    exist yet and is built from the columns by :func:`unshred` only if
    a caller asks for nodes.  :func:`shred` and :func:`shred_fragment`
    build the arrays from a DOM in one pass.  ``node_by_pre`` maps result
    pre ranks back to DOM nodes for any origin, through the pre-ordered
    node list the columns encode: the DOM's numbering at the time, which
    a later renumber replaces but never changes, so a shred held across
    an update decodes to its own nodes.
    """

    def __init__(self, *, pre: np.ndarray, size: np.ndarray,
                 level: np.ndarray, kind: np.ndarray, parent: np.ndarray,
                 name: np.ndarray, names: list[str], values: StringHeap,
                 element_index: ElementIndex,
                 document: Document | None = None,
                 root: Node | None = None,
                 nodes: list[Node] | None = None,
                 uri: str = "", doc_id: int = 0,
                 store_ref: tuple[str, str] | None = None):
        self.pre = pre
        self.size = size
        self.level = level
        self.kind = kind
        self.parent = parent
        self.name = name
        self.names = list(names)
        self._name_ids = {nm: i for i, nm in enumerate(self.names)}
        self.values = values
        self.element_index = element_index
        freeze(pre, size, level, kind, parent, name, values.pres,
               values.offsets, values.heap, element_index.nids,
               element_index.offsets, element_index.pres)
        #: Without a *document* or an orphan's *nodes*, the DOM is
        #: built from the columns (named *uri*, numbered *doc_id*) the
        #: first time a node is decoded.
        self._document = document
        self._uri = document.uri if document is not None else uri
        self._doc_id = document.doc_id if document is not None else doc_id
        #: The fragment root: the document itself, or the orphan
        #: subtree's top node for constructed fragments.
        self._root = root if root is not None else document
        #: The pre -> node list the columns encode: an orphan's, or the
        #: *document*'s current numbering (set with the DOM when that is
        #: built from the columns).
        self._nodes = nodes if nodes is not None or document is None \
            else document.all_nodes()
        #: ``(store path, uri)`` once the columns are store-backed —
        #: the handle worker processes use to re-open the same file.
        self._store_ref = store_ref
        self._build_lock = lockcheck.new_lock(
            "ShreddedDocument._build_lock")
        self._kind_pres: dict[int, np.ndarray] = {}
        self._name_pools: dict[str, np.ndarray] = {}
        self._non_attribute: np.ndarray | None = None
        self._attr_columns: dict[str, AttributeColumn] = {}
        self._columns_lock = lockcheck.new_lock(
            "ShreddedDocument._columns_lock")

    @property
    def document(self) -> Document | None:
        """The owning document (``None`` for an orphan fragment).  A
        column-backed shred builds it on first use — the columns never
        need it, only node decoding does — and every caller gets that
        one instance: double-checked, the hit is a plain attribute
        read."""
        document = self._document
        if document is None and self._root is None:
            with self._build_lock:
                if self._document is None:
                    built = unshred(self, uri=self._uri,
                                    doc_id=self._doc_id)
                    # the node list first: node_by_pre reads it unlocked
                    self._nodes = built.all_nodes()
                    self._document = built
                document = self._document
        return document

    @property
    def root(self) -> Node | None:
        return self._root if self._root is not None else self.document

    @property
    def store_ref(self) -> tuple[str, str] | None:
        """``(store path, uri)`` when the columns are mmap-backed."""
        return self._store_ref

    @property
    def uri(self) -> str:
        """The uri of the document these columns encode ("" for an
        orphan fragment); read without building the DOM."""
        return self._uri

    @property
    def doc_id(self) -> int:
        """The id of the document these columns encode (0 for an
        orphan fragment); read without building the DOM."""
        return self._doc_id

    def __len__(self) -> int:
        return len(self.pre)

    def node_by_pre(self, pre: int) -> Node:
        """The DOM node these columns encode at *pre* (any fragment
        origin)."""
        if self._nodes is None:
            self.document           # builds the DOM and its node list
        return self._nodes[pre]

    def name_of(self, pre: int) -> str | None:
        nid = self.name[pre]
        return self.names[nid] if nid >= 0 else None

    def value_of(self, pre: int) -> str | None:
        return self.values.get(int(pre))

    def elements_named(self, tag: str) -> np.ndarray:
        """Sorted pre ranks of elements with the given tag (element index)."""
        nid = self._name_ids.get(tag)
        if nid is None:
            return _NO_PRES
        return self.element_index.pres_of(nid)

    def attributes_named(self, name: str) -> np.ndarray:
        """Sorted pre ranks of the attribute rows named exactly *name*
        (no local-name match, unlike :meth:`attribute_column`)."""
        nid = self._name_ids.get(name)
        if nid is None:
            return _NO_PRES
        return np.flatnonzero((self.name == nid) & (self.kind == Attr.kind))

    def all_element_pres(self) -> np.ndarray:
        """Sorted pre ranks of all element nodes (cached)."""
        return self.pres_of_kind(Element.kind)

    def elements_matching(self, name: str) -> np.ndarray:
        """Sorted pre ranks of the elements a *name test* matches.

        A name test accepts an element whenever the local names agree,
        so the pool is the union of the element-index entries sharing
        the test's local name — one entry in the common unprefixed
        case.  The single pool-resolution routine shared by the bulk
        evaluator and the process-pool executor's workers: both sides
        must derive byte-identical pools from the same columns.
        Cached per name, so a step pays one dict lookup.
        """
        pool = self._name_pools.get(name)
        if pool is None:
            local = name.rpartition(":")[2]
            chunks = [self.elements_named(tag) for tag in self.names
                      if tag.rpartition(":")[2] == local]
            chunks = [c for c in chunks if len(c)]
            if len(chunks) > 1:
                pool = np.sort(np.concatenate(chunks))
                freeze(pool)
            else:
                pool = chunks[0] if chunks else _NO_PRES
            self._name_pools[name] = pool
        return pool

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
        shred — an update splices the cached ones into the next shred,
        :mod:`repro.xmldb.splice`)."""
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

    def attribute_columns(self) -> dict[str, AttributeColumn]:
        """The attribute columns built so far, by local name."""
        with self._columns_lock:
            return dict(self._attr_columns)

    def adopt_attribute_columns(self, columns: dict[str, AttributeColumn]
                                ) -> None:
        """Cache *columns* (built for these rows elsewhere — a splice)
        as if :meth:`attribute_column` had built them."""
        with self._columns_lock:
            lockcheck.assert_locked(self._columns_lock,
                                    "ShreddedDocument._attr_columns")
            self._attr_columns.update(columns)

    def post(self) -> np.ndarray:
        """Post-order ranks derived from pre/size (pre + size)."""
        return self.pre + self.size


def _columns(nodes: list[Node]) -> dict:
    """The store-layout columns of a numbered pre-order node list, built
    straight from the nodes (the :class:`ShreddedDocument` keywords)."""
    n = len(nodes)
    size = np.fromiter((node.size for node in nodes), dtype=np.int64,
                       count=n)
    level = np.fromiter((node.level for node in nodes), dtype=np.int64,
                        count=n)
    kind = np.fromiter((node.kind for node in nodes), dtype=np.int8,
                       count=n)
    parent = np.fromiter((-1 if node.parent is None else node.parent.pre
                          for node in nodes), dtype=np.int64, count=n)
    names: list[str] = []
    name_ids: dict[str, int] = {}
    name_col = [-1] * n
    value_pres: list[int] = []
    strings: list[str] = []
    for i, node in enumerate(nodes):
        if isinstance(node, Element):
            label = node.tag
        elif isinstance(node, (Text, Comment)):
            value_pres.append(i)
            strings.append(node.text)
            continue
        elif isinstance(node, Attr):
            label = node.name
            value_pres.append(i)
            strings.append(node.value)
        elif isinstance(node, ProcessingInstruction):
            label = node.target
            value_pres.append(i)
            strings.append(node.data)
        else:
            continue
        nid = name_ids.get(label)
        if nid is None:
            nid = name_ids[label] = len(names)
            names.append(label)
        name_col[i] = nid
    name = np.asarray(name_col, dtype=np.int32)
    return dict(pre=np.arange(n, dtype=np.int64), size=size, level=level,
                kind=kind, parent=parent, name=name, names=names,
                values=_string_heap(value_pres, strings),
                element_index=element_index(kind, name))


def element_index(kind: np.ndarray, name: np.ndarray) -> ElementIndex:
    """The element-name index of the rows *kind*/*name*: element pres
    grouped by name id, each group in document order (a stable sort of
    the ascending pres)."""
    elements = np.flatnonzero(kind == Element.kind)
    tags = name[elements]
    order = np.argsort(tags, kind="stable")
    tags = tags[order]
    starts = np.flatnonzero(np.diff(tags, prepend=-1))
    return ElementIndex(tags[starts], np.append(starts, len(tags)),
                        elements[order])


def shred(document: Document) -> ShreddedDocument:
    """Shred a document into its column representation, as numbered:
    whatever changes a DOM renumbers it (parsing, :func:`unshred`, a
    store's add, update and invalidate)."""
    return ShreddedDocument(**_columns(document.all_nodes()),
                            document=document)


def shred_fragment(root: Node) -> ShreddedDocument:
    """Shred a constructed fragment (an orphan subtree) on demand.

    Document roots go through :func:`shred`; orphan subtrees are
    numbered by the shared :func:`~repro.xmldb.dom.renumber_fragment`
    — idempotent with the numbering the evaluator's fragment
    constructor already assigned — and the node list in pre order
    backs :meth:`ShreddedDocument.node_by_pre`.
    """
    if isinstance(root, Document):
        return shred(root)
    nodes = renumber_fragment(root)
    return ShreddedDocument(**_columns(nodes), root=root, nodes=nodes)


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
    value_pres = shredded.values.pres.tolist()
    try:
        strings = shredded.values.strings()
    except StorageFormatError as exc:
        raise StorageFormatError(f"{where}: {exc}") from None
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

