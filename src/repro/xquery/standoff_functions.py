"""Extension builtins: BLOB access and region predicates.

These go beyond the paper's four operators but stay inside its model:

``blob-content($blob-uri, $node)``
    The BLOB content an area-annotation refers to — the concatenated
    (start-ordered) fragments of the node's regions.  This is the
    "retrieve the annotated object" half of stand-off annotation that
    the XIRAF forensic system needed in practice.

``blob-substring($blob-uri, $start, $end)``
    Raw inclusive-range access to a registered BLOB.

``region-relation($node1, $node2)``
    The Allen relation (one of the 13 of §3) between the *envelopes* of
    two annotations, as a string such as ``"overlaps"`` or ``"during"``.

``standoff-contains($node1, $node2)`` / ``standoff-overlaps(...)``
    The §3.1 predicates between two area-annotations (∀/∃-quantified
    over their region sets), as booleans — the predicate form of
    select-narrow / select-wide for use inside ``where`` clauses.

``regions($node)``
    The node's region boundaries as a flat sequence
    ``(start1, end1, start2, end2, ...)``.
"""

from __future__ import annotations

from repro.core.region import Area
from repro.core.relations import classify
from repro.errors import XQueryDynamicError, XQueryTypeError
from repro.xmldb.dom import Node
from repro.xquery.context import DynamicContext, Sequence
from repro.xquery.functions import builtin
from repro.xquery.values import atomize_single, string_value, to_number


def _area_of(ctx: DynamicContext, node: Node, what: str) -> Area:
    index = ctx.region_index_for(ctx.shredded_for(node.root))
    area = index.area_of(node.pre)
    if area is None:
        name = getattr(node, "tag", node.kind_name)
        raise XQueryDynamicError(
            f"{what}: node <{name}> is not an area-annotation "
            "(no region information under the active standoff options)")
    return area


def _one_node(seq: Sequence, what: str) -> Node:
    if len(seq) != 1 or not isinstance(seq[0], Node):
        raise XQueryTypeError(f"{what} requires exactly one node")
    return seq[0]


@builtin("blob-content", 2)
def fn_blob_content(ctx: DynamicContext, args) -> Sequence:
    uri = string_value(args[0])
    node = _one_node(args[1], "blob-content")
    area = _area_of(ctx, node, "blob-content")
    blob = ctx.blobs.get(uri)
    content = blob.extract(area)
    if isinstance(content, bytes):
        content = content.decode("latin-1")
    return [content]


@builtin("blob-substring", 3)
def fn_blob_substring(ctx: DynamicContext, args) -> Sequence:
    uri = string_value(args[0])
    start = int(to_number(atomize_single(args[1], "blob-substring start")))
    end = int(to_number(atomize_single(args[2], "blob-substring end")))
    blob = ctx.blobs.get(uri)
    from repro.core.region import Region

    content = blob.slice(Region(start, end))
    if isinstance(content, bytes):
        content = content.decode("latin-1")
    return [content]


@builtin("blob-length", 1)
def fn_blob_length(ctx: DynamicContext, args) -> Sequence:
    return [len(ctx.blobs.get(string_value(args[0])))]


@builtin("region-relation", 2)
def fn_region_relation(ctx: DynamicContext, args) -> Sequence:
    a = _area_of(ctx, _one_node(args[0], "region-relation"),
                 "region-relation")
    b = _area_of(ctx, _one_node(args[1], "region-relation"),
                 "region-relation")
    return [classify(a.envelope, b.envelope).value]


@builtin("standoff-contains", 2)
def fn_standoff_contains(ctx: DynamicContext, args) -> Sequence:
    a = _area_of(ctx, _one_node(args[0], "standoff-contains"),
                 "standoff-contains")
    b = _area_of(ctx, _one_node(args[1], "standoff-contains"),
                 "standoff-contains")
    return [a.contains(b)]


@builtin("standoff-overlaps", 2)
def fn_standoff_overlaps(ctx: DynamicContext, args) -> Sequence:
    a = _area_of(ctx, _one_node(args[0], "standoff-overlaps"),
                 "standoff-overlaps")
    b = _area_of(ctx, _one_node(args[1], "standoff-overlaps"),
                 "standoff-overlaps")
    return [a.overlaps(b)]


@builtin("regions", 1)
def fn_regions(ctx: DynamicContext, args) -> Sequence:
    node = _one_node(args[0], "regions")
    area = _area_of(ctx, node, "regions")
    out: Sequence = []
    for region in area.regions:
        out.append(region.start)
        out.append(region.end)
    return out


# ----------------------------------------------------------------------
# cross-fragment querying (paper §3.3 (ii))
# ----------------------------------------------------------------------

@builtin("collection", 0)
def fn_collection(ctx: DynamicContext, args) -> Sequence:
    """All stored document nodes, in storage (doc id) order."""
    return [stored.document for stored in
            sorted(ctx.store, key=lambda s: s.doc_id)]


def _global_standoff(op_name: str):
    """Builtin factory for the cross-fragment StandOff functions.

    ``select-narrow-global($context)`` matches candidates from *every*
    stored document — the multiple-annotation-layers-over-one-BLOB use
    case the paper discusses (and decides against for axis steps, since
    it needs a collection-global region index).
    """
    from repro.core.global_index import global_standoff_join
    from repro.core.naive import StandoffOp

    def fn(ctx: DynamicContext, args) -> Sequence:
        from repro.xmldb.dom import Document

        op = StandoffOp.from_name(op_name)
        context_rows = []
        for node in args[0]:
            if not isinstance(node, Node):
                raise XQueryTypeError(
                    f"{op_name}-global requires node arguments")
            root = node.root
            if not isinstance(root, Document):
                raise XQueryDynamicError(
                    f"{op_name}-global only covers stored documents; "
                    "the context node is a constructed fragment")
            stored = ctx.store.by_document(root)
            if stored is None:
                raise XQueryDynamicError(
                    f"{op_name}-global only covers stored documents")
            context_rows.append((0, stored.doc_id, node.pre))
        if not context_rows:
            return []
        config = ctx.standoff_config
        index = ctx.store.global_region_index(config)
        per_fragment = ctx.store.region_indexes(config)
        result = global_standoff_join(op, context_rows, index,
                                      per_fragment)
        out: Sequence = []
        for doc_id, pre in result.get(0, []):
            document = ctx.store.by_id(doc_id).document
            out.append(document.node_by_pre(pre))
        return out

    return fn


for _op in ("select-narrow", "select-wide", "reject-narrow",
            "reject-wide"):
    from repro.xquery.functions import _REGISTRY as _R

    _R[(f"{_op}-global", 1)] = _global_standoff(_op)
