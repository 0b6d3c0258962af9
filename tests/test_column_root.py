"""A stored document is read from its columns until a node is decoded.

``fn:doc`` under ``ll`` yields the document's root as pre 0 of its
shred (:meth:`NodeColumns.root <repro.relational.sequence.NodeColumns.root>`),
``context_uri=`` and an absolute ``/`` start from the same row, and a
StandOff step finds its region index by asking the store about the
shred.  So over an ``open_store``d document a query that returns no
node never builds the DOM (:func:`repro.xmldb.shred.unshred`), and
every answer equals the ``basic`` DOM walk's.  The ``fn:doc`` argument
rules (the empty sequence, an unstored URI) are pinned here too, under
every strategy.
"""

import sys

import pytest

from repro import storage
from repro.errors import ReproError, XQueryDynamicError
from repro.relational.sequence import NodeColumns
from repro.xmark import generate_xmark
from repro.xmark.queries import query_text
from repro.xquery.engine import Database

STRATEGIES = ("udf", "basic", "ll")

#: A small StandOff document: sentences over words, plus a cross-cutting
#: annotation, all by start/end attributes.
A_XML = ('<r><s id="1" start="0" end="9"><w start="0" end="4">a</w>'
         '<w start="5" end="9">b</w></s>'
         '<s id="2" start="10" end="19"><w start="10" end="19">c</w></s>'
         '<x start="3" end="12"/></r>')
B_XML = '<r><s id="1" start="0" end="5"><w start="0" end="5">d</w></s></r>'

SO = 'doc("so.xml")'
SO_REGIONS = SO + '//site/select-narrow::regions'

#: (query, context uri): ``ll`` over an opened store must equal
#: ``basic`` and build no DOM.
COLUMN_QUERIES = [
    ('count(doc("xmark.xml")//bidder)', None),
    ('exists(doc("xmark.xml")//open_auction/bidder)', None),
    ('empty(doc("xmark.xml")//person[@id="nobody"])', None),
    (query_text("q6", "so.xml"), None),
    (f'for $b in {SO_REGIONS}/select-narrow::* '
     'return count($b/select-narrow::item)', None),
    (f'count({SO_REGIONS}/select-wide::item)', None),
    (f'count({SO}//site/select-narrow::people/reject-narrow::person)',
     None),
    ('for $i in (1, 2, 3) '
     'return count(doc("a.xml")//s[@id="1"]/select-narrow::w)', None),
    ('count(/site//item)', "xmark.xml"),
]

#: Shapes around a document node: ``ll`` == ``basic``, in memory and
#: store-backed.
DOC_SHAPES = [
    'doc("a.xml")',
    'doc("a.xml")/..',
    'count(doc("a.xml")/..)',
    'doc("a.xml")/self::node()',
    '(doc("a.xml"), doc("a.xml"))/r',
    'doc("a.xml") | doc("a.xml")',
    'for $u in ("a.xml", "b.xml", "a.xml") return count(doc($u)//w)',
    'for $u in ("a.xml", "b.xml", "a.xml") return doc($u)/r/s[1]',
    'doc("a.xml")//w/ancestor::node()',
    'for $d in doc("a.xml") return $d//w[2]',
    'root((doc("a.xml")//w)[1])',
    'doc("a.xml")//s/select-narrow::w',
    'for $s in doc("a.xml")//s return count($s/reject-wide::w)',
    'doc("a.xml")//x/select-wide::w',
    'count(doc(()))',
    'for $i in (1, 2) return doc(if ($i = 1) then "a.xml" else ())//x',
]


def build_db() -> Database:
    xml = generate_xmark(0.05, seed=3)
    db = Database()
    db.add_document("xmark.xml", xml)
    db.add_document_standoff("so.xml", xml, permute=True)
    db.add_document("a.xml", A_XML)
    db.add_document("b.xml", B_XML)
    return db


@pytest.fixture(scope="module")
def memory_db():
    return build_db()


@pytest.fixture(scope="module")
def store_path(tmp_path_factory, memory_db):
    path = str(tmp_path_factory.mktemp("column-root") / "docs.repro")
    return storage.save_store(path, memory_db)


@pytest.fixture()
def unshred_calls(monkeypatch):
    """Count :func:`repro.xmldb.shred.unshred` calls.  The module is
    reached through ``sys.modules``: the package attribute
    ``repro.xmldb.shred`` is the ``shred`` function."""
    module = sys.modules["repro.xmldb.shred"]
    real, calls = module.unshred, []

    def spy(*args, **kwargs):
        calls.append(kwargs.get("uri"))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "unshred", spy)
    return calls


@pytest.mark.parametrize("query,context_uri", COLUMN_QUERIES)
def test_stored_query_builds_no_dom(memory_db, store_path, unshred_calls,
                                    query, context_uri):
    want = memory_db.query(query, strategy="basic",
                           context_uri=context_uri).serialize()
    del unshred_calls[:]        # the in-memory DOM the walk asked for
    opened = storage.open_store(store_path)
    got = opened.query(query, strategy="ll",
                       context_uri=context_uri).serialize()
    assert got == want
    assert unshred_calls == []
    assert all(stored._document is None for stored in opened.store)


@pytest.fixture(scope="module")
def fresh_db():
    """A database no query has decoded a node of yet."""
    return build_db()


@pytest.mark.parametrize("query,context_uri", COLUMN_QUERIES)
def test_parsed_query_builds_no_dom(memory_db, fresh_db, unshred_calls,
                                    query, context_uri):
    """A document added as text starts from its columns, as an opened
    store does: the same queries build no DOM in memory either."""
    got = fresh_db.query(query, strategy="ll",
                         context_uri=context_uri).serialize()
    assert unshred_calls == []
    assert got == memory_db.query(query, strategy="basic",
                                  context_uri=context_uri).serialize()
    assert all(fresh_db.document(uri)._document is None
               for uri in ("xmark.xml", "a.xml", "b.xml"))


def test_doc_is_the_root_row(store_path, unshred_calls):
    """``doc()`` is a one-row column sequence, pre 0 of the stored
    document's current shred, in every iteration."""
    from repro.xquery.ast import FunctionCall, Literal
    from repro.xquery.bulk import BulkEnv, eval_bulk
    from repro.xquery.context import DynamicContext

    opened = storage.open_store(store_path)
    stored = opened.store.get("a.xml")
    env = BulkEnv(DynamicContext(opened.store), [0, 1, 2], {})
    seq = eval_bulk(FunctionCall("doc", [Literal("a.xml")]), env)
    assert isinstance(seq.data, NodeColumns)
    assert seq.data.shredded is stored.shredded
    its, pres = seq.data.rows([0, 1, 2])
    assert its.tolist() == [0, 1, 2] and pres.tolist() == [0, 0, 0]
    assert opened.store.by_shred(stored.shredded) is stored
    assert unshred_calls == []


def test_decoded_nodes_are_the_stored_documents(store_path):
    """After a column-root query, a node-returning ``ll`` query yields
    the stored document's own nodes."""
    opened = storage.open_store(store_path)
    assert opened.query('count(doc("a.xml")//w)',
                        strategy="ll").serialize() == "3"
    stored = opened.store.get("a.xml")
    words = opened.query('doc("a.xml")//w', strategy="ll")
    assert len(words) == 3
    for node in words:
        assert node is stored.document.node_by_pre(node.pre)
    (root,) = opened.query('doc("a.xml")', strategy="ll")
    assert root is stored.document
    (root,) = opened.query("/", strategy="ll", context_uri="a.xml")
    assert root is stored.document


@pytest.mark.parametrize("backing", ["memory", "store"])
@pytest.mark.parametrize("query", DOC_SHAPES)
def test_doc_shapes_agree(memory_db, store_path, backing, query):
    """``ll`` runs first, so a store-backed document meets the column
    root before anything has built its DOM."""
    db = memory_db if backing == "memory" \
        else storage.open_store(store_path)
    got = db.query(query, strategy="ll").serialize()
    assert got == db.query(query, strategy="basic").serialize()


# ----------------------------------------------------------------------
# fn:doc's argument
# ----------------------------------------------------------------------

@pytest.mark.parametrize("strategy", STRATEGIES)
def test_doc_of_the_empty_sequence_is_empty(memory_db, strategy):
    assert memory_db.query("count(doc(()))",
                           strategy=strategy).serialize() == "0"
    assert memory_db.query("doc(())", strategy=strategy) == []


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("query", [
    'doc("missing.xml")',
    'count(doc("missing.xml")//w)',
    'for $u in ("a.xml", "missing.xml") return count(doc($u)//w)',
])
def test_unstored_uri_raises_fodc0002(memory_db, strategy, query):
    with pytest.raises(XQueryDynamicError, match="missing.xml") as info:
        memory_db.query(query, strategy=strategy)
    assert info.value.code == "err:FODC0002"
    assert isinstance(info.value, ReproError)
    assert "[err:FODC0002]" in str(info.value)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_unstored_uri_in_no_iteration_does_not_raise(memory_db, strategy):
    query = 'for $i in () return doc("missing.xml")'
    assert memory_db.query(query, strategy=strategy) == []


def test_store_get_keeps_its_untyped_error(memory_db):
    with pytest.raises(ReproError) as info:
        memory_db.store.get("missing.xml")
    assert not isinstance(info.value, XQueryDynamicError)


# ----------------------------------------------------------------------
# region indexes are read off the columns
# ----------------------------------------------------------------------

DOUBLE = 'declare option standoff-type "xs:double";\n'


@pytest.mark.parametrize("query", [
    DOUBLE + 'count(doc("a.xml")//s/select-narrow::w)',
    DOUBLE + 'count(doc("a.xml")//x/select-wide::w)',
    'declare option standoff-region "region";\n'
    'count(doc("b.xml")//s/select-narrow::w)',
])
def test_custom_config_regions_build_no_dom(memory_db, store_path,
                                             unshred_calls, query):
    """A config the store file holds no table for is extracted from
    the mapped columns."""
    want = memory_db.query(query, strategy="basic").serialize()
    del unshred_calls[:]        # the in-memory DOM the walk asked for
    opened = storage.open_store(store_path)
    assert opened.query(query, strategy="ll").serialize() == want
    assert unshred_calls == []
    assert all(stored._document is None for stored in opened.store)


def test_transient_fragment_regions(store_path, unshred_calls):
    query = ('count(<r><s start="0" end="9"><w start="1" end="2"/></s>'
             '<w start="5" end="20"/></r>//s/select-narrow::w)')
    opened = storage.open_store(store_path)
    assert opened.query(query, strategy="ll").serialize() == \
        opened.query(query, strategy="basic").serialize() == "1"
    assert unshred_calls == []


def test_half_region_raises_from_the_columns(tmp_path, unshred_calls):
    """A half region keeps the default table out of the store file; the
    opened store raises the in-memory error from its columns."""
    from repro.errors import RegionError

    db = Database()
    db.add_document("h.xml",
                    '<a><c start="0" end="9"/><b start="1"/></a>')
    read = 'count(doc("h.xml")//c/select-narrow::b)'
    with pytest.raises(RegionError) as info:
        db.query(read, strategy="basic")
    del unshred_calls[:]        # the in-memory DOM the walk asked for
    path = storage.save_store(str(tmp_path / "h.repro"), db)
    opened = storage.open_store(path)
    assert not storage.StoreReader(path).has_regions("h.xml")
    with pytest.raises(RegionError) as got:
        opened.query(read, strategy="ll")
    assert str(got.value) == str(info.value)
    assert unshred_calls == []
