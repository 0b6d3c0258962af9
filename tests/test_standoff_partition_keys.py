"""Fragment grouping of StandOff steps under address reuse.

A StandOff step groups its context per fragment root
(:func:`repro.xquery.bulk.fragment_groups`) and resolves each
fragment's shred and region index through the query's caches, which
key constructed fragments on ``id(root)``.  Soundness rests on two
properties: every cache entry pins its root object and every lookup
verifies identity, and the step's own groups are keyed on the root
objects themselves.  CPython recycles addresses as soon as an object
dies, so these tests force the collision directly: ``id`` is shadowed
inside the modules so two live roots report one address, which is
exactly what a stale entry at a recycled address looks like.
"""

import gc

import repro.xquery.bulk as bulk
import repro.xquery.context as context_module
import repro.xquery.standoff as standoff
from repro.config import ExecOptions
from repro.relational import IterSeq
from repro.xquery import Database
from repro.xquery.context import DynamicContext

FRAGMENT = ("let $f := <w start='0' end='10'><c start='1' end='2'/>"
            "<c start='3' end='4'/></w> ")


def make_context(db: Database) -> DynamicContext:
    return DynamicContext(db.store, options=ExecOptions(strategy="ll"))


def shadow_id(monkeypatch, fake_id) -> None:
    # A module-level binding shadows the builtin for code in the module.
    for module in (bulk, standoff, context_module):
        monkeypatch.setattr(module, "id", fake_id, raising=False)


def test_stale_candidate_at_recycled_address_is_dropped(monkeypatch):
    db = Database()
    ctx = make_context(db)
    (root_a,) = list(db.query(FRAGMENT + "return $f"))
    candidate_nodes = list(db.query(FRAGMENT + "return $f/child::c"))
    root_b = candidate_nodes[0].root
    assert root_a is not root_b

    def fake_id(obj, _real=id):
        # Both roots report one address: the recycled-id scenario.
        if obj is root_a or obj is root_b:
            return 0xDEAD
        return _real(obj)

    shadow_id(monkeypatch, fake_id)
    # The candidates live in a different fragment whose root merely
    # shares the address — every one must be rejected, though root_a
    # has content-equal nodes at the same pre ranks.
    assert standoff.standoff_function(ctx, "select-narrow", [root_a],
                                      candidate_nodes) == []
    own = list(root_a.children)
    assert standoff.standoff_function(ctx, "select-narrow", [root_a],
                                      own) == own


def test_candidates_from_the_pinned_root_still_group(monkeypatch):
    """The identity check only rejects *impostors* — same-root
    candidates keep flowing through the explicit-candidate path."""
    db = Database()
    ctx = make_context(db)
    nodes = list(db.query(FRAGMENT + "return $f/child::c"))
    root = nodes[0].root

    def fake_id(obj, _real=id):
        return 0xBEEF if obj is root else _real(obj)

    shadow_id(monkeypatch, fake_id)
    assert standoff.standoff_function(ctx, "select-narrow", [root],
                                      nodes) == nodes


def test_partition_entries_pin_fragment_roots():
    db = Database()
    ctx = make_context(db)
    nodes = list(db.query("let $f := <w><c/></w> return $f/child::c"))
    ((shredded, its, pres, rows),) = bulk.fragment_groups(
        ctx, IterSeq({0: nodes}), [0])
    assert its.tolist() == [0] and pres.tolist() == [nodes[0].pre]
    assert rows.tolist() == [0]
    del nodes
    gc.collect()
    # The group holds the fragment's shred, which holds its root, so
    # the root cannot die (and its address be recycled) while the
    # group is alive — and it is still resolvable through it.
    root = shredded.root
    assert root.tag == "w"
    assert shredded.node_by_pre(root.pre) is root


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
