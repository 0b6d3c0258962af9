"""Column splices: a document's derived structures after an update,
cut and concatenated from the ones before it.

An update (:meth:`repro.xmldb.store.StoredDocument.insert` /
:meth:`~repro.xmldb.store.StoredDocument.delete`) changes the DOM and
renumbers it once.  The shred and the region tables of the new
numbering are then made from the old arrays — ``pre`` as a column that
can be remapped, the way MonetDB/XQuery updates its pre/post plane
(Boncz, Manegold, Rittinger, XIME-P 2005) — instead of re-derived from
the DOM:

* a delete drops old pre ranges ``[pre, pre + size]``; an insert puts
  the fragment's rows in at their new pre rank, and only those rows are
  read from the DOM (:class:`RowMap` says where every row went);
* rows after a splice point shift ``pre`` and ``parent``; the
  ancestors of an edit take their new ``size`` from the DOM;
* the value heap, the element-name index, the cached attribute columns
  and the region tables take the same cut and concatenation, and new
  names are appended to the dictionary; the region rows of the edited
  areas are re-extracted from the new shred's columns.

Everything is built new and frozen, so a reader still holding the old
shred or region table keeps an unchanged snapshot.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.core.region_index import RegionTable
from repro.xmldb.dom import Attr, Document, Element, Node
from repro.xmldb.shred import (
    AttributeColumn,
    ElementIndex,
    ShreddedDocument,
    StringHeap,
    _columns,
)


def _covered(n: int, ranges: list[tuple[int, int]]) -> np.ndarray:
    """The rows ``0 .. n-1`` inside some ``[lo, hi)`` of *ranges* (which
    may nest or overlap)."""
    if not ranges:
        return np.zeros(n, dtype=bool)
    lo, hi = np.asarray(ranges, dtype=np.int64).T
    edges = np.zeros(n + 1, dtype=np.int64)
    np.add.at(edges, lo, 1)
    np.add.at(edges, hi, -1)
    return np.cumsum(edges[:-1]) > 0


def _merge_order(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The permutation of ``concatenate((a, b))`` that merges the two
    ascending key columns into one."""
    at = np.searchsorted(a, b, side="right") \
        + np.arange(len(b), dtype=np.int64)
    from_b = np.zeros(len(a) + len(b), dtype=bool)
    from_b[at] = True
    order = np.empty(len(from_b), dtype=np.int64)
    order[from_b] = np.arange(len(a), len(from_b), dtype=np.int64)
    order[~from_b] = np.arange(len(a), dtype=np.int64)
    return order


class RowMap:
    """Where the rows of the old numbering went.

    Built from the old and new row counts, the old pre ranges an update
    *cut* and the new pre ranges it filled with *fresh* (inserted)
    rows, each a ``[lo, hi)`` list.  ``src[new]`` is the old pre rank
    of a new row (-1 for a fresh one), ``new_of_old[old]`` the new pre
    rank of an old row (-1 for a cut one) — ascending where defined, so
    every column sorted on pre stays sorted after the remap — and
    ``fresh`` the new pre ranks of the fresh rows.
    """

    __slots__ = ("src", "new_of_old", "fresh")

    def __init__(self, n_old: int, n_new: int,
                 cut: list[tuple[int, int]],
                 fresh: list[tuple[int, int]]):
        kept = np.flatnonzero(~_covered(n_old, cut))
        is_fresh = _covered(n_new, fresh)
        self.fresh = np.flatnonzero(is_fresh)
        landed = np.flatnonzero(~is_fresh)
        self.src = np.full(n_new, -1, dtype=np.int64)
        self.src[landed] = kept
        self.new_of_old = np.full(n_old, -1, dtype=np.int64)
        self.new_of_old[kept] = landed

    def remap(self, pres: np.ndarray) -> np.ndarray:
        """New pre ranks of old ones; -1 stays -1 (no parent) and a cut
        row becomes -1."""
        out = self.new_of_old[pres]
        out[pres < 0] = -1
        return out


def splice_shred(old: ShreddedDocument, document: Document, rows: RowMap,
                 fresh_nodes: list[Node], touched: list[Node]
                 ) -> ShreddedDocument:
    """The shred of the renumbered *document*, made from *old*.

    *fresh_nodes* are the nodes of ``rows.fresh`` (in pre order), the
    only rows read from the DOM; *touched* the kept nodes whose subtree
    size changed (the ancestors-or-self of the edits), whose new size
    the DOM holds.  Every other row keeps its old columns, shifted.
    """
    src, fresh = rows.src, rows.fresh
    landed = src >= 0
    kept = src[landed]
    new = _columns(fresh_nodes)

    def merged(old_column: np.ndarray, fresh_column) -> np.ndarray:
        out = np.empty(len(src), dtype=old_column.dtype)
        out[landed] = old_column[kept]
        out[fresh] = fresh_column
        return out

    size = merged(old.size, new["size"])
    if touched:
        size[[node.pre for node in touched]] = [node.size
                                                for node in touched]
    names = list(old.names)
    name_ids = dict(old._name_ids)
    remap = []
    for label in new["names"]:
        nid = name_ids.get(label)
        if nid is None:
            nid = name_ids[label] = len(names)
            names.append(label)
        remap.append(nid)
    remap.append(-1)                # the fresh column's -1 stays -1
    kind = merged(old.kind, new["kind"])
    name = merged(old.name, np.asarray(remap, dtype=np.int32)[new["name"]])
    shredded = ShreddedDocument(
        pre=np.arange(len(src), dtype=np.int64), size=size,
        level=merged(old.level, new["level"]), kind=kind,
        parent=merged(rows.remap(old.parent), new["parent"]), name=name,
        names=names, values=_splice_heap(old.values, new["values"], rows),
        element_index=_splice_element_index(
            old.element_index, rows, fresh[new["kind"] == Element.kind],
            name),
        document=document)
    shredded.adopt_attribute_columns({
        local: _splice_attribute_column(column, shredded, rows, local)
        for local, column in old.attribute_columns().items()})
    return shredded


def _splice_heap(old: StringHeap, new: StringHeap, rows: RowMap
                 ) -> StringHeap:
    """The value heap after the splice: the kept entries (shifted) and
    the fresh ones merged on pre, their bytes copied run by run — one
    slice per stretch of entries contiguous in the old heap."""
    old_pres = rows.new_of_old[old.pres]
    keep = old_pres >= 0
    base = len(old.heap)
    fresh_pres = rows.fresh[new.pres]
    order = _merge_order(old_pres[keep], fresh_pres)
    pres = np.concatenate((old_pres[keep], fresh_pres))[order]
    lo = np.concatenate((old.offsets[:-1][keep],
                         new.offsets[:-1] + base))[order]
    hi = np.concatenate((old.offsets[1:][keep],
                         new.offsets[1:] + base))[order]
    offsets = np.zeros(len(pres) + 1, dtype="<i8")
    np.cumsum(hi - lo, out=offsets[1:])
    breaks = np.flatnonzero(lo[1:] != hi[:-1]) + 1
    runs = zip(lo[np.concatenate(([0], breaks))].tolist(),
               hi[np.append(breaks, len(lo)) - 1].tolist()) \
        if len(lo) else ()
    pieces = []
    # lo/hi address old.heap followed by new.heap; a run may span both
    for a, b in runs:
        if a < base:
            pieces.append(old.heap[a:min(b, base)])
        if b > base:
            pieces.append(new.heap[max(a, base) - base:b - base])
    heap = np.concatenate(pieces) if pieces \
        else np.empty(0, dtype=np.uint8)
    return StringHeap(pres.astype("<i8", copy=False), offsets, heap)


def _splice_element_index(old: ElementIndex, rows: RowMap,
                          fresh_elements: np.ndarray, name: np.ndarray
                          ) -> ElementIndex:
    """The element-name index after the splice: each kept entry is
    keyed ``(name id, new pre)`` — ascending, as the old CSR is sorted
    by name id and then pre and the remap keeps pre order — and the
    fresh elements' keys are merged in."""
    width = len(rows.src)
    nids = np.repeat(old.nids.astype(np.int64), np.diff(old.offsets))
    pres = rows.new_of_old[old.pres]
    keep = pres >= 0
    kept = nids[keep] * width + pres[keep]
    fresh = np.sort(name[fresh_elements].astype(np.int64) * width
                    + fresh_elements)
    keys = np.concatenate((kept, fresh))[_merge_order(kept, fresh)]
    tags, pres = np.divmod(keys, width)
    starts = np.flatnonzero(np.diff(tags, prepend=-1))
    return ElementIndex(tags[starts].astype("<i4"),
                        np.append(starts, len(tags)).astype("<i8"),
                        pres.astype("<i8"))


def _splice_attribute_column(old: AttributeColumn,
                             shredded: ShreddedDocument, rows: RowMap,
                             local: str) -> AttributeColumn:
    """An ``@local`` column after the splice: the kept rows keep their
    codes, the fresh rows are decoded, and values not yet in the
    dictionary are inserted into it (shifting the codes above them).
    Values no row carries any more stay in the dictionary, which the
    compares never see: they bisect it and compare codes."""
    attrs = rows.fresh[shredded.kind[rows.fresh] == Attr.kind]
    ids = [nid for nid, name in enumerate(shredded.names)
           if name.rpartition(":")[2] == local]
    attrs = attrs[np.isin(shredded.name[attrs],
                          np.asarray(ids, dtype=np.int32))]
    moved = rows.new_of_old[old.rows]
    keep = moved >= 0
    codes = old.codes[keep]
    distinct = old.distinct
    texts = shredded.values.strings_at(attrs)
    added = sorted(set(texts).difference(distinct))
    if added:
        at = np.asarray([bisect_left(distinct, text) for text in added],
                        dtype=np.int64)
        codes = codes + np.searchsorted(at, codes, side="right")
        distinct = sorted(distinct + added)
    fresh_codes = np.asarray([bisect_left(distinct, text) for text in texts],
                             dtype=np.int64)
    kept_rows = moved[keep]
    order = _merge_order(kept_rows, attrs)
    return AttributeColumn(
        np.concatenate((kept_rows, attrs))[order],
        np.concatenate((rows.remap(old.owners[keep]),
                        shredded.parent[attrs]))[order],
        np.concatenate((codes, fresh_codes))[order], distinct)


def _row_keys(table: RegionTable, dtype: np.dtype) -> np.ndarray:
    """A region table's ``(start, end, id)`` rows as one structured
    column, which compares (and so searchsorts) lexicographically."""
    keys = np.empty(len(table), dtype=dtype)
    keys["start"], keys["end"], keys["id"] = \
        table.starts, table.ends, table.ids
    return keys


def splice_region_table(table: RegionTable, rows: RowMap,
                        redone: np.ndarray, fresh: RegionTable
                        ) -> RegionTable:
    """A region table after the splice: rows of cut nodes and of the
    *redone* elements (new pre ranks: the fresh elements and the kept
    ones whose area the edit may have changed) are dropped, the kept ids
    shifted, and *fresh* — the rows re-extracted for the redone
    elements — merged in on ``(start, end, id)``."""
    ids = rows.new_of_old[table.ids]
    keep = (ids >= 0) & ~np.isin(ids, redone)
    kept = RegionTable(table.starts[keep], table.ends[keep], ids[keep],
                       presorted=True)
    if not len(fresh):
        return kept
    position = np.result_type(kept.starts, fresh.starts)
    dtype = np.dtype([("start", position), ("end", position),
                      ("id", "<i8")])
    order = _merge_order(_row_keys(kept, dtype), _row_keys(fresh, dtype))
    return RegionTable(
        np.concatenate((kept.starts, fresh.starts))[order],
        np.concatenate((kept.ends, fresh.ends))[order],
        np.concatenate((kept.ids, fresh.ids))[order], presorted=True)
