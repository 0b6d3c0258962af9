"""Differential testing: the three strategies must agree on everything.

Hypothesis generates random stand-off annotation documents (nested and
overlapping regions, several element names); a battery of query shapes
covering all four axes, predicates, nesting and aggregation runs under
``udf``, ``basic`` and ``ll`` — the last under the serving kernel and
under Listing 1 (``kernel="ll"``).  Any divergence is a bug in one of
the join algorithms or evaluators.  The two active-items structures of
Listing 1 (``list``, ``heap``) are compared at the kernel level.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import KERNEL_LL
from repro.core import IterContext, RegionTable, StandoffOp
from repro.core.mergejoin_ll import ll_join
from repro.xquery import Database

NAMES = ("alpha", "beta", "gamma")


@st.composite
def annotation_documents(draw):
    """A flat annotated document with random overlapping regions."""
    n = draw(st.integers(1, 18))
    parts = ["<doc>"]
    for i in range(n):
        name = draw(st.sampled_from(NAMES))
        start = draw(st.integers(0, 80))
        length = draw(st.integers(0, 40))
        parts.append(
            f'<{name} nr="{i}" start="{start}" end="{start + length}"/>')
    parts.append("</doc>")
    return "".join(parts)


QUERY_BATTERY = [
    'doc("d.xml")//alpha/select-narrow::beta',
    'doc("d.xml")//alpha/select-wide::beta',
    'doc("d.xml")//alpha/reject-narrow::beta',
    'doc("d.xml")//alpha/reject-wide::beta',
    'doc("d.xml")//beta/select-wide::*',
    'for $a in doc("d.xml")//alpha return count($a/select-narrow::gamma)',
    'for $a in doc("d.xml")//alpha '
    'return <r n="{$a/@nr}">{$a/select-wide::beta/@nr}</r>',
    'for $a in doc("d.xml")//alpha '
    'for $b in $a/select-wide::beta '
    'return concat($a/@nr, "-", $b/@nr)',
    'count(doc("d.xml")//gamma/reject-wide::alpha)',
    'doc("d.xml")//alpha[@nr="0"]/select-wide::beta[1]',
    'for $x in doc("d.xml")//beta where count($x/select-narrow::gamma) '
    '> 0 return $x/@nr',
]


@pytest.mark.parametrize("query", QUERY_BATTERY)
@given(xml=annotation_documents())
@settings(max_examples=25, deadline=None)
def test_strategies_agree(query, xml):
    db = Database()
    db.add_document("d.xml", xml)
    results = {}
    for strategy in ("udf", "basic", "ll"):
        results[strategy] = db.query(query, strategy=strategy).serialize()
    assert results["udf"] == results["basic"], xml
    assert results["udf"] == results["ll"], xml


@pytest.mark.parametrize("query", QUERY_BATTERY)
@given(xml=annotation_documents())
@settings(max_examples=25, deadline=None)
def test_reference_kernel_agrees(query, xml):
    """``ll`` with Listing 1 as its kernel answers as ``basic`` does."""
    db = Database()
    db.add_document("d.xml", xml)
    reference = db.query(query, strategy="basic").serialize()
    got = db.query(query, strategy="ll", kernel=KERNEL_LL).serialize()
    assert got == reference, xml


@st.composite
def region_rows(draw):
    """``(name, nr, start, end)`` of a random flat annotation, drawn as
    :func:`annotation_documents` draws its elements."""
    return [(draw(st.sampled_from(NAMES)), nr, start,
             start + draw(st.integers(0, 40)))
            for nr in range(draw(st.integers(1, 18)))
            for start in (draw(st.integers(0, 80)),)]


@given(rows=region_rows())
@settings(max_examples=25, deadline=None)
def test_active_structures_agree(rows):
    """Listing 1 over a list or a heap of active items: same answer.
    Each ``alpha`` is a context row of iteration ``nr % 3``; the
    ``beta`` regions are the candidates."""
    context = IterContext.from_rows(
        [(nr % 3, nr, start, end)
         for name, nr, start, end in rows if name == "alpha"])
    candidates = RegionTable.from_rows(
        [(start, end, nr) for name, nr, start, end in rows
         if name == "beta"])
    for op in StandoffOp:
        as_list = ll_join(op, context, candidates, active_structure="list")
        as_heap = ll_join(op, context, candidates, active_structure="heap")
        assert as_list == as_heap, (op, rows)


@given(xml=annotation_documents())
@settings(max_examples=25, deadline=None)
def test_select_reject_partition_candidates(xml):
    """select-X and reject-X partition the candidate set (§3.1)."""
    db = Database()
    db.add_document("d.xml", xml)
    total = db.query('count(doc("d.xml")//beta)')[0]
    has_alpha = db.query('count(doc("d.xml")//alpha)')[0]
    if has_alpha == 0:
        return
    for flavour in ("narrow", "wide"):
        selected = db.query(
            f'count(doc("d.xml")//alpha/select-{flavour}::beta)')[0]
        rejected = db.query(
            f'count(doc("d.xml")//alpha/reject-{flavour}::beta)')[0]
        assert selected + rejected == total, flavour


@given(xml=annotation_documents())
@settings(max_examples=25, deadline=None)
def test_narrow_subset_of_wide(xml):
    """Containment implies overlap: select-narrow ⊆ select-wide."""
    db = Database()
    db.add_document("d.xml", xml)
    narrow = db.query('doc("d.xml")//alpha/select-narrow::beta')
    wide = db.query('doc("d.xml")//alpha/select-wide::beta')
    wide_ids = {id(n) for n in wide}
    assert all(id(n) in wide_ids for n in narrow)


@pytest.mark.parametrize("query", QUERY_BATTERY[:6])
@given(xml=annotation_documents())
@settings(max_examples=15, deadline=None)
def test_pushdown_policies_agree(query, xml):
    """§3.3 (iii): pushdown is a plan choice, never a semantics choice."""
    db = Database()
    db.add_document("d.xml", xml)
    results = {policy: db.query(query, pushdown=policy).serialize()
               for policy in ("always", "never", "auto")}
    assert results["always"] == results["never"]
    assert results["always"] == results["auto"]
