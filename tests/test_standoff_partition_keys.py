"""The id()-keyed fragment partitions in repro.xquery.standoff.

``_prepare`` keys fragment partitions on ``id(root)`` — the key must
stay an int because it travels through the kernel's fragment-id column.
Soundness rests on two properties (the PR 7 strong-ref scheme): every
entry pins its root object, and every lookup verifies ``entry[0] is
root`` before trusting the key.  CPython recycles addresses as soon as
an object dies, so these tests force the collision directly: ``id`` is
shadowed inside the module so two live roots report one address, which
is exactly what a stale entry at a recycled address looks like.
"""

import gc

import repro.xquery.standoff as standoff
from repro.config import ExecOptions
from repro.xquery import Database
from repro.xquery.context import DynamicContext


def make_context(db: Database) -> DynamicContext:
    return DynamicContext(db.store, options=ExecOptions(strategy="ll"))


def test_stale_candidate_at_recycled_address_is_dropped(monkeypatch):
    db = Database()
    ctx = make_context(db)
    context_nodes = list(db.query(
        "let $f := <w><c/></w> return $f/child::c"))
    candidate_nodes = list(db.query(
        "let $f := <w><c/><c/></w> return $f/child::c"))
    root_a = standoff._fragment_root(context_nodes[0])
    root_b = standoff._fragment_root(candidate_nodes[0])
    assert root_a is not root_b

    def fake_id(obj, _real=id):
        # Both roots report one address: the recycled-id scenario.
        if obj is root_a or obj is root_b:
            return 0xDEAD
        return _real(obj)

    # A module-level binding shadows the builtin for code in the module.
    monkeypatch.setattr(standoff, "id", fake_id, raising=False)
    context_by_fragment, candidates_by_fragment, iter_rows = \
        standoff._prepare(ctx, {0: context_nodes}, None, candidate_nodes)
    assert set(context_by_fragment) == {0xDEAD}
    info, pres = context_by_fragment[0xDEAD]
    assert info.root is root_a
    assert pres == [context_nodes[0].pre]
    assert iter_rows == [(0, 0xDEAD, context_nodes[0].pre)]
    # The candidates live in a different fragment whose root merely
    # shares the address — the identity check must reject every one.
    assert list(candidates_by_fragment[0xDEAD]) == []


def test_candidates_from_the_pinned_root_still_group(monkeypatch):
    """The identity check only rejects *impostors* — same-root
    candidates keep flowing through the explicit-candidate path."""
    db = Database()
    ctx = make_context(db)
    nodes = list(db.query(
        "let $f := <w><c/><c/></w> return $f/child::c"))
    root = standoff._fragment_root(nodes[0])

    def fake_id(obj, _real=id):
        return 0xBEEF if obj is root else _real(obj)

    monkeypatch.setattr(standoff, "id", fake_id, raising=False)
    _context, candidates_by_fragment, _rows = standoff._prepare(
        ctx, {0: [nodes[0]]}, None, nodes)
    assert list(candidates_by_fragment[0xBEEF]) == \
        sorted(node.pre for node in nodes)


def test_partition_entries_pin_fragment_roots():
    db = Database()
    ctx = make_context(db)
    nodes = list(db.query("let $f := <w><c/></w> return $f/child::c"))
    root = standoff._fragment_root(nodes[0])
    key = id(root)
    context_by_fragment, _candidates, _rows = standoff._prepare(
        ctx, {0: nodes}, None, None)
    info, _pres = context_by_fragment[key]
    del root, nodes
    gc.collect()
    # The partition holds a strong reference, so the keyed address
    # cannot be recycled while the partition is alive — and the root
    # is still resolvable through it.
    assert info.root.tag == "w"
    assert info.node_by_pre(info.root.pre) is info.root


def test_repeated_constructed_fragments_resolve_to_live_nodes():
    """End-to-end churn: each round constructs a content-equal fragment,
    the previous one dies, and CPython happily hands out the freed
    addresses again.  Every round must resolve to that round's nodes."""
    db = Database()
    query = ("let $f := <w><c start='0' end='10'/>"
             "<t start='2' end='3'/></w> "
             "return $f/child::c/select-narrow::t")
    for _ in range(20):
        nodes = list(db.query(query))
        assert len(nodes) == 1
        assert nodes[0].tag == "t"
        del nodes
        gc.collect()
