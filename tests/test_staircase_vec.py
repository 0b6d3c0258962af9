"""Differential testing of the vectorized Staircase Join family.

Three independent implementations of every staircase axis must agree
exactly on randomized documents and contexts:

* ``vectorized`` — the batched columnar kernels
  (``staircase/kernels_vec.py``); both the lazy dict view and the
  fully-decoded ``to_dict()`` form must match;
* ``ll`` — the dict-shaped loop-lifted reference
  (``staircase/loop_lifted.ll_axis_join``: single-pass descendant,
  per-iteration set joins for the other axes);
* the per-iteration ``staircase.py`` joins called directly (the
  iterated baseline).

On top of the kernel-level equivalences, engine-level tests assert the
loop-lifted strategy matches the ``basic`` strategy's DOM walk for every
staircase axis and kernel — including the attribute corner cases
(``descendant::node()`` must *not* include attributes) — and columnar
property tests check the CSR invariants of axis output.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    KERNEL_LL,
    KERNEL_VECTORIZED,
    WORKERS_SERIAL,
)
from repro.relational import ColumnarResult
from repro.staircase import (
    ancestor_join,
    child_join,
    descendant_join,
    following_join,
    following_sibling_join,
    iterated_descendant_join,
    ll_axis_join,
    ll_descendant_join,
    preceding_join,
    preceding_sibling_join,
    staircase_join,
    vec_staircase_join,
)
from repro.xmldb import parse_document, shred
from repro.xquery import Database

AXES = ("descendant", "ancestor", "child", "following", "preceding",
        "following-sibling", "preceding-sibling")

PER_SET_JOINS = {
    "ancestor": ancestor_join,
    "child": child_join,
    "following": following_join,
    "preceding": preceding_join,
    "following-sibling": following_sibling_join,
    "preceding-sibling": preceding_sibling_join,
}


def random_tree_xml(shape: list[int]) -> str:
    """Deterministic nested document from a shape list (child fanouts);
    sprinkles attributes, text and comments through the structure."""
    parts = ["<r>"]
    depth = 0
    for i, fanout in enumerate(shape):
        if fanout % 3 == 0 and depth > 0:
            parts.append("</n>")
            depth -= 1
        elif fanout % 5 == 0:
            parts.append(f"t{i}" if fanout % 2 else "<!--c-->")
        else:
            attr = f' i="{fanout}"' if fanout % 2 else ""
            parts.append(f"<n{attr}>")
            depth += 1
    parts.extend("</n>" * depth)
    parts.append("</r>")
    return "".join(parts)


trees = st.lists(st.integers(0, 8), min_size=0, max_size=40).map(
    random_tree_xml)
contexts = st.lists(st.tuples(st.integers(1, 4), st.integers(0, 30)),
                    max_size=10)


def iterated_axis_join(sh, axis, context, candidates=None):
    """Per-iteration staircase joins — the iterated baseline."""
    if axis == "descendant":
        return iterated_descendant_join(sh, context, candidates)
    per_iter: dict[int, list[int]] = {}
    for it, pre in context:
        per_iter.setdefault(it, []).append(pre)
    out: dict[int, list[int]] = {}
    for it, pres in per_iter.items():
        res = PER_SET_JOINS[axis](sh, np.asarray(pres, np.int64),
                                  candidates)
        if len(res):
            out[it] = res.tolist()
    return out


def assert_csr_invariants(result: ColumnarResult) -> None:
    """Structural invariants of the columnar axis output."""
    iters, offsets, values = result.iters, result.offsets, result.values
    assert len(offsets) == len(iters) + 1
    assert offsets[0] == 0 and offsets[-1] == len(values)
    assert np.all(np.diff(offsets) >= 0)
    if len(iters) > 1:
        assert np.all(np.diff(iters) > 0), "iters must be strictly asc"
    for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        chunk = values[a:b]
        if len(chunk) > 1:
            assert np.all(np.diff(chunk) > 0), \
                "per-iteration ids must be unique ascending"


# ----------------------------------------------------------------------
# kernel-level differential: vectorized == ll == iterated
# ----------------------------------------------------------------------

class TestDifferential:
    @pytest.mark.parametrize("axis", AXES)
    @given(xml=trees, raw_context=contexts)
    @settings(max_examples=40, deadline=None)
    def test_vec_equals_ll_equals_iterated(self, axis, xml, raw_context):
        doc = parse_document(xml)
        sh = shred(doc)
        context = [(it, pre) for it, pre in raw_context
                   if pre < doc.node_count]
        columnar = vec_staircase_join(axis, sh, context)
        assert isinstance(columnar, ColumnarResult)
        assert_csr_invariants(columnar)
        reference = ll_axis_join(sh, axis, context)
        assert columnar.to_dict() == reference, (axis, xml, context)
        assert columnar.to_dict() == iterated_axis_join(sh, axis, context)

    @pytest.mark.parametrize("axis", AXES)
    @given(xml=trees, raw_context=contexts,
           step=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_candidate_restriction(self, axis, xml, raw_context, step):
        doc = parse_document(xml)
        sh = shred(doc)
        context = [(it, pre) for it, pre in raw_context
                   if pre < doc.node_count]
        candidates = sh.pre[::step]
        columnar = vec_staircase_join(axis, sh, context, candidates)
        assert_csr_invariants(columnar)
        assert columnar.to_dict() == \
            ll_axis_join(sh, axis, context, candidates)
        assert columnar.to_dict() == \
            iterated_axis_join(sh, axis, context, candidates)

    @pytest.mark.parametrize("axis", ("descendant", "ancestor"))
    @given(xml=trees, raw_context=contexts)
    @settings(max_examples=25, deadline=None)
    def test_or_self(self, axis, xml, raw_context):
        doc = parse_document(xml)
        sh = shred(doc)
        context = [(it, pre) for it, pre in raw_context
                   if pre < doc.node_count]
        for candidates in (None, sh.all_element_pres()):
            columnar = vec_staircase_join(axis, sh, context, candidates,
                                          or_self=True)
            assert_csr_invariants(columnar)
            assert columnar.to_dict() == ll_axis_join(
                sh, axis, context, candidates, or_self=True)

    def test_descendant_matches_seed_oracle(self):
        """The historical contract: vec == ll_descendant_join ==
        iterated_descendant_join, exactly (same keys, same lists)."""
        xml = '<r><a i="1"><b/><c>t</c></a><a><b/></a></r>'
        doc = parse_document(xml)
        sh = shred(doc)
        context = [(1, doc.root_element.find("a").pre),
                   (2, doc.root_element.pre),
                   (2, doc.root_element.find("a").pre)]
        expected = ll_descendant_join(sh, context)
        assert expected == iterated_descendant_join(sh, context)
        assert vec_staircase_join("descendant", sh,
                                  context).to_dict() == expected


class TestEdgeCases:
    def test_empty_context(self):
        sh = shred(parse_document("<r/>"))
        for axis in AXES:
            assert vec_staircase_join(axis, sh, []).to_dict() == {}
            assert ll_axis_join(sh, axis, []) == {}

    def test_empty_candidates(self):
        doc = parse_document("<r><a><b/></a></r>")
        sh = shred(doc)
        context = [(0, doc.root_element.pre)]
        empty = np.empty(0, np.int64)
        for axis in AXES:
            assert vec_staircase_join(axis, sh, context,
                                      empty).to_dict() == {}

    def test_nested_context_pruned_not_lost(self):
        """A context node nested in another context node of the same
        iteration is pruned as a window but kept as a result."""
        doc = parse_document("<r><a><b><c/></b></a></r>")
        sh = shred(doc)
        a = doc.root_element.find("a")
        b = a.find("b")
        got = vec_staircase_join("descendant", sh,
                                 [(7, a.pre), (7, b.pre)]).to_dict()
        assert got == {7: [b.pre, b.find("c").pre]}

    def test_iterations_independent(self):
        doc = parse_document("<r><a><b/></a><c><d/></c></r>")
        sh = shred(doc)
        root = doc.root_element
        a, c = root.find("a"), root.find("c")
        got = vec_staircase_join("descendant", sh,
                                 [(1, a.pre), (2, c.pre)]).to_dict()
        assert got == {1: [a.find("b").pre], 2: [c.find("d").pre]}

    def test_following_preceding_partition(self):
        """For any single node: ancestors + descendants-or-self +
        following + preceding partition the non-attribute rows."""
        xml = ('<r><a><b>t1</b><c/></a><d><e><f/></e>t2</d>'
               '<!--x--><g/></r>')
        doc = parse_document(xml)
        sh = shred(doc)
        pool = sh.non_attribute_pres()
        for pre in pool.tolist():
            parts = [
                vec_staircase_join("ancestor", sh, [(0, pre)], pool),
                vec_staircase_join("descendant", sh, [(0, pre)], pool,
                                   or_self=True),
                vec_staircase_join("following", sh, [(0, pre)], pool),
                vec_staircase_join("preceding", sh, [(0, pre)], pool),
            ]
            union: list[int] = []
            for part in parts:
                union.extend(part.to_dict().get(0, []))
            assert sorted(union) == pool.tolist(), pre
            assert len(union) == len(set(union)), pre

    def test_sibling_axes_of_attributes_and_roots_are_empty(self):
        """Attribute nodes are not children of their owner, and the
        document node has no parent — neither has siblings (the DOM
        walk yields nothing for them)."""
        doc = parse_document('<r><a i="1" j="2"/><b/></r>')
        sh = shred(doc)
        attr_pres = sh.pre[sh.kind == 5].tolist()
        assert attr_pres, "fixture must carry attributes"
        context = [(0, 0)] + [(0, pre) for pre in attr_pres]
        for axis in ("following-sibling", "preceding-sibling"):
            assert vec_staircase_join(axis, sh, context).to_dict() == {}
            assert ll_axis_join(sh, axis, context) == {}

    def test_sibling_pool_excludes_attribute_rows(self):
        """Attribute rows share the parent column with genuine children
        but are never siblings — even when the pool contains them."""
        doc = parse_document('<r><a/><b i="1" j="2"><c/></b><d/></r>')
        sh = shred(doc)
        root = doc.root_element
        a = root.find("a")
        got = vec_staircase_join("following-sibling", sh,
                                 [(0, a.pre)]).to_dict()
        expected = [root.find("b").pre, root.find("d").pre]
        assert got == {0: expected}
        assert ll_axis_join(sh, "following-sibling",
                            [(0, a.pre)]) == {0: expected}

    def test_duplicate_attribute_anchors_deduped(self):
        """Two attributes of one element anchor at the same owner pre;
        the following/preceding kernels must not emit duplicate ranks
        (the anchor boundary dedupes)."""
        doc = parse_document('<r><x i="1" j="2"/><y/><z/></r>')
        sh = shred(doc)
        x = doc.root_element.find("x")
        attrs = [attr.pre for attr in x.attributes]
        assert len(attrs) == 2
        context = [(3, pre) for pre in attrs]
        for axis in ("following", "preceding"):
            columnar = vec_staircase_join(axis, sh, context)
            assert_csr_invariants(columnar)   # dupes would violate CSR
            assert columnar.to_dict() == ll_axis_join(sh, axis, context)
        following = vec_staircase_join("following", sh,
                                       context).to_dict()
        y, z = doc.root_element.find("y"), doc.root_element.find("z")
        assert following == {3: [y.pre, z.pre]}

    def test_or_self_rejected_on_unsupported_axes(self):
        sh = shred(parse_document("<r><a/></r>"))
        for axis in ("child", "following", "preceding",
                     "following-sibling", "preceding-sibling"):
            with pytest.raises(ValueError, match="or-self"):
                vec_staircase_join(axis, sh, [(0, 0)], or_self=True)
            with pytest.raises(ValueError, match="or-self"):
                ll_axis_join(sh, axis, [(0, 0)], or_self=True)

    def test_unknown_axis_rejected(self):
        sh = shred(parse_document("<r/>"))
        with pytest.raises(ValueError, match="staircase"):
            vec_staircase_join("sideways", sh, [(0, 0)])
        with pytest.raises(ValueError, match="staircase"):
            ll_axis_join(sh, "sideways", [(0, 0)])


# ----------------------------------------------------------------------
# kernel dispatch
# ----------------------------------------------------------------------

class TestKernelDispatch:
    def test_staircase_join_kernels_agree(self):
        doc = parse_document(random_tree_xml(list(range(1, 30))))
        sh = shred(doc)
        rng = random.Random(5)
        context = [(rng.randrange(5), rng.randrange(doc.node_count))
                   for _ in range(20)]
        for axis in AXES:
            vec = staircase_join(axis, sh, context,
                                 kernel=KERNEL_VECTORIZED)
            ref = staircase_join(axis, sh, context, kernel=KERNEL_LL)
            assert isinstance(vec, ColumnarResult)
            assert isinstance(ref, dict)
            assert vec.to_dict() == ref
            assert staircase_join(axis, sh, context).to_dict() == ref

    @pytest.mark.parametrize("kernel", (KERNEL_VECTORIZED, KERNEL_LL))
    @pytest.mark.parametrize("workers", (WORKERS_SERIAL, 2))
    def test_canonical_column_context(self, kernel, workers):
        """A ``(its, pres)`` column pair is a context of two rows
        ``(0, 2)`` and ``(1, 4)`` on every route — not two pairs made of
        its columns."""
        sh = shred(parse_document(
            "<a><b><c/></b><b><c/><c/></b><b/></a>"))
        pool = sh.elements_named("c")
        context = (np.array([0, 1], dtype=np.int64),
                   np.array([2, 4], dtype=np.int64))
        got = staircase_join("child", sh, context, pool, kernel=kernel,
                             workers=workers, shard_min_rows=1)
        assert dict(got) == {0: [3], 1: [5, 6]}

    def test_unknown_kernel_rejected(self):
        sh = shred(parse_document("<r/>"))
        with pytest.raises(ValueError, match="unknown join kernel"):
            staircase_join("descendant", sh, [(0, 0)], kernel="warp9")


# ----------------------------------------------------------------------
# engine level: the DOM walk is the oracle
# ----------------------------------------------------------------------

ENGINE_XML = ('<r a="1"><x b="2"><y/>mid<!--c--></x>'
              '<x c="3"><z><y/></z></x>tail<?pi data?></r>')

ENGINE_QUERIES = [
    'doc("d.xml")/r/descendant::node()',
    'doc("d.xml")/r/descendant-or-self::node()',
    'doc("d.xml")//x/descendant::y',
    'doc("d.xml")//y/ancestor::*',
    'doc("d.xml")//y/ancestor-or-self::node()',
    'doc("d.xml")//x/child::node()',
    'doc("d.xml")//y/following::node()',
    'doc("d.xml")//y/preceding::node()',
    'doc("d.xml")//x/descendant::text()',
    'doc("d.xml")/r/descendant::comment()',
    'doc("d.xml")/r/descendant::processing-instruction()',
    'for $x in doc("d.xml")//x return count($x/descendant::node())',
    'for $x in doc("d.xml")//x return $x/following::x',
    'doc("d.xml")//x/@b/descendant-or-self::node()',
    'doc("d.xml")//x/@b/following::*',
    'doc("d.xml")//x/@b/ancestor::*',
    'doc("d.xml")//x/following-sibling::node()',
    'doc("d.xml")//y/following-sibling::*',
    'doc("d.xml")//x/preceding-sibling::node()',
    'doc("d.xml")//z/preceding-sibling::text()',
    'for $x in doc("d.xml")//x return count($x/following-sibling::x)',
    'doc("d.xml")//x/@b/following-sibling::node()',
    'doc("d.xml")//x/@b/preceding-sibling::node()',
]


@pytest.mark.parametrize("kernel", [KERNEL_LL, KERNEL_VECTORIZED])
@pytest.mark.parametrize("query", ENGINE_QUERIES)
def test_bulk_staircase_matches_dom_walk(kernel, query):
    """The loop-lifted staircase fast path must agree with the basic
    strategy's DOM walk under every kernel — including the node() pools,
    which exclude attribute nodes on the tree axes."""
    db = Database()
    db.add_document("d.xml", ENGINE_XML)
    reference = db.query(query, strategy="basic").serialize()
    got = db.query(query, strategy="ll",
                   kernel=kernel).serialize()
    assert got == reference, (kernel, query)


@pytest.mark.parametrize("query", ENGINE_QUERIES)
def test_sharded_bulk_staircase_matches_dom_walk(query, monkeypatch):
    """The serving kernel fanned out over two workers agrees with the
    DOM walk on every query of the battery.  Three outer iterations and
    shards of one row make each step really shard."""
    import repro.exec.sharding as sharding

    shard_counts = []
    real = sharding.run_shards

    def spy(jobs, workers):
        shard_counts.append(len(jobs))
        return real(jobs, workers)

    monkeypatch.setattr(sharding, "run_shards", spy)
    db = Database()
    db.add_document("d.xml", ENGINE_XML)
    lifted = f"for $v in (1, 2, 3) return {query}"
    reference = db.query(lifted, strategy="basic").serialize()
    got = db.query(lifted, strategy="ll", workers=2,
                   shard_min_rows=1).serialize()
    assert got == reference, query
    assert shard_counts and min(shard_counts) >= 2, shard_counts


@pytest.mark.parametrize("kernel", [KERNEL_LL, KERNEL_VECTORIZED])
def test_bulk_staircase_prefixed_name_tests(kernel):
    """A name test matches by local name in the DOM walk; the staircase
    candidate pool must union the element-index entries sharing the
    local name, not just the exact tag."""
    db = Database()
    db.add_document("d.xml", '<root><n:foo><bar/></n:foo><foo/></root>')
    for query in ('doc("d.xml")/root/child::foo',
                  'doc("d.xml")/root/descendant::foo',
                  'doc("d.xml")//bar/ancestor::foo',
                  'doc("d.xml")//bar/following::foo',
                  'doc("d.xml")/root/descendant::n:foo'):
        reference = db.query(query, strategy="basic").serialize()
        got = db.query(query, strategy="ll",
                       kernel=kernel).serialize()
        assert got == reference, (kernel, query)


def test_bulk_staircase_random_documents():
    """Randomized end-to-end check through the query engine."""
    rng = random.Random(99)
    for trial in range(6):
        xml = random_tree_xml([rng.randrange(9) for _ in range(25)])
        db = Database()
        db.add_document("d.xml", xml)
        for axis in ("descendant", "descendant-or-self", "ancestor",
                     "child", "following", "preceding",
                     "following-sibling", "preceding-sibling"):
            query = f'doc("d.xml")//n/{axis}::node()'
            reference = db.query(query, strategy="basic").serialize()
            for kernel in (KERNEL_LL, KERNEL_VECTORIZED):
                got = db.query(query, strategy="ll",
                               kernel=kernel).serialize()
                assert got == reference, (trial, axis, kernel)
