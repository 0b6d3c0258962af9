"""Positional predicates: vectorized CSR filter vs the per-node walk.

The PR 7 companion of ``bench_staircase_siblings.py``: anchors are
XMark ``open_auction`` (forward axes) or ``bidder`` (reverse axes)
elements, and the final step carries a positional predicate —
``[position() mod 2 = 1]``, ``[position() < 5]``, ``[1]``,
``[last()]``-style.  Three serving paths race:

* the per-node DOM walk — axis enumeration plus per-candidate
  predicate evaluation through the iterative evaluator (the
  ``basic``-strategy oracle and the pre-PR7 ``ll`` fallback);
* one staircase kernel join per anchor batch followed by the
  vectorized position/length mask chain
  (``repro.xquery.bulk._apply_positional_chain``);
* the end-to-end query under ``basic`` (the DOM walk) vs ``ll`` (the
  columnar positional path) — the same contrast diluted by the anchor
  step and decode.

The trajectory harness (``run_all.py``, scenario family
``positional.*``) sweeps document scales; this file keeps the
pytest-benchmark view at one scale.
"""

import pytest

from repro.staircase.kernels_vec import (
    resolve_staircase_pool,
    staircase_join,
)
from repro.xquery import bulk
from repro.xquery.axes import STAIRCASE_AXES
from repro.xquery.context import DynamicContext
from repro.xquery.parser import parse

CASES = {
    "child_mod": ("open_auction",
                  "child::bidder[position() mod 2 = 1]"),
    "descendant_window": ("open_auction",
                          "descendant::*[position() < 5]"),
    "ancestor_first": ("bidder", "ancestor::*[1]"),
    "preceding_sibling_last": ("bidder",
                               "preceding-sibling::*[last()]"),
}


@pytest.fixture(scope="module")
def inputs(xmark_db):
    stored = xmark_db.store.get("xmark.xml")
    shredded = stored.shredded
    scope = DynamicContext(xmark_db.store)
    prepared = {}
    for name, (anchor_tag, step_text) in CASES.items():
        step = parse(f'doc("x.xml")/r/{step_text}').body.steps[-1]
        axis, or_self = STAIRCASE_AXES[step.axis]
        maskers = bulk.compile_positional_predicates(step.predicates)
        assert maskers is not None, step_text
        rows = [(i, int(pre)) for i, pre in enumerate(
            shredded.elements_named(anchor_tag).tolist())]
        candidates = resolve_staircase_pool(
            shredded, bulk._staircase_candidate_desc(step.test))
        prepared[name] = (step, axis, or_self, maskers,
                          step.axis in bulk.REVERSE_AXES, rows,
                          candidates)
    return xmark_db, shredded, scope, prepared


@pytest.mark.parametrize("name", list(CASES))
def test_positional_dom_walk(benchmark, inputs, name):
    _db, shredded, scope, prepared = inputs
    step, _axis, _or_self, _maskers, _rev, rows, _cands = prepared[name]

    def walk():
        out = {}
        for i, pre in rows:
            nodes = bulk._dom_positional_anchor(
                shredded.node_by_pre(pre), step, scope)
            if nodes:
                out[i] = nodes
        return out

    assert isinstance(benchmark(walk), dict)


@pytest.mark.parametrize("name", list(CASES))
def test_positional_vectorized(benchmark, inputs, name):
    _db, shredded, _scope, prepared = inputs
    _step, axis, or_self, maskers, reverse, rows, cands = prepared[name]

    def vectorized():
        result = staircase_join(axis, shredded, rows, cands,
                                or_self=or_self, kernel="vectorized")
        return bulk._apply_positional_chain(
            result.offsets, result.values, maskers, reverse)

    offsets, _values = benchmark(vectorized)
    assert len(offsets) == len(rows) + 1


@pytest.mark.parametrize("strategy", ["basic", "ll"],
                         ids=["dom-walk", "vectorized"])
def test_positional_query_end_to_end(benchmark, inputs, strategy):
    db, _shredded, _scope, _prepared = inputs
    query = ('doc("xmark.xml")//open_auction'
             '/child::bidder[position() mod 2 = 1]')
    assert len(benchmark(lambda: db.query(query, strategy=strategy))) > 0


def test_serving_paths_agree(inputs):
    _db, shredded, scope, prepared = inputs
    for name, (step, axis, or_self, maskers, reverse, rows,
               cands) in prepared.items():
        result = staircase_join(axis, shredded, rows, cands,
                                or_self=or_self, kernel="vectorized")
        offsets, values = bulk._apply_positional_chain(
            result.offsets, result.values, maskers, reverse)
        bounds, vals = offsets.tolist(), values.tolist()
        got = {i: vals[bounds[i]:bounds[i + 1]]
               for i in range(len(rows)) if bounds[i + 1] > bounds[i]}
        ref = {}
        for i, pre in rows:
            nodes = bulk._dom_positional_anchor(
                shredded.node_by_pre(pre), step, scope)
            if nodes:
                ref[i] = [node.pre for node in nodes]
        assert got == ref, name
