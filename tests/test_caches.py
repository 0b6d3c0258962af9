"""Cross-query cache correctness: compiled plans.

The differential contract: a warm cache must be answer-invisible.
Repeated mixed batches with the plan cache enabled serialize
identically to cold-cache runs — including after forced evictions at
tiny budgets.
"""

import io

from repro.xmldb.shred import fragment_fingerprint
from repro.xquery import Database

#: A mixed batch: stored-document paths, positional predicates and
#: constructed fragments (content-equal fragments keep their own
#: identity: the last query counts two ``p``, not one).
BATCH = (
    'doc("f.xml")//a',
    'doc("f.xml")/r/child::*[position() mod 2 = 1]',
    'doc("f.xml")//a/ancestor::*[last()]',
    'let $f := <w><p/>text<q/></w> return $f/child::*[2]',
    'let $f := <w><p/>text<q/></w> return count($f/child::node())',
    'for $x in doc("f.xml")//a '
    'let $f := <v>{$x/child::node()}</v> '
    'return $f/descendant-or-self::node()[position() < 3]',
    'count((<w><p/></w>, <w><p/></w>)/child::p)',
)

XML = "<r><a><b/>t1<a i='1'><b/></a></a><a>t2</a><b/></r>"


def run_batch(db, rounds=1):
    out = []
    for _ in range(rounds):
        for query in BATCH:
            for strategy in ("basic", "ll"):
                out.append(db.query(query, strategy=strategy,
                                    shard_min_rows=1).serialize())
    return out


def cold_answers():
    """Every query on a fresh Database with the plan cache off."""
    db = Database(plan_cache_size=0)
    db.add_document("f.xml", XML)
    return run_batch(db)


def test_warm_caches_answer_identical_to_cold():
    cold = cold_answers()
    assert cold[-1] == "2"
    db = Database(plan_cache_size=256)
    db.add_document("f.xml", XML)
    for _round in range(3):
        assert run_batch(db) == cold
    plan = db.plan_cache.stats()
    assert plan["hits"] > 0 and plan["misses"] > 0


def test_forced_evictions_stay_correct():
    """A tiny budget forces constant eviction churn; answers must not
    change (an evicted plan recompiles, it never corrupts)."""
    cold = cold_answers()
    db = Database(plan_cache_size=2)
    db.add_document("f.xml", XML)
    for _round in range(3):
        assert run_batch(db) == cold
    assert db.plan_cache.stats()["evictions"] > 0


def test_plan_cache_counters_and_disable():
    warm = Database(plan_cache_size=8)
    warm.add_document("f.xml", XML)
    warm.query('doc("f.xml")//a')
    warm.query('doc("f.xml")//a')
    stats = warm.plan_cache.stats()
    assert stats == {"entries": 1, "max_entries": 8, "hits": 1,
                     "misses": 1, "evictions": 0}
    warm.plan_cache.clear()
    assert warm.plan_cache.stats()["entries"] == 0

    off = Database(plan_cache_size=0)
    off.add_document("f.xml", XML)
    off.query('doc("f.xml")//a')
    off.query('doc("f.xml")//a')
    assert off.plan_cache.stats()["entries"] == 0
    assert not off.plan_cache.enabled


def test_fingerprint_distinguishes_adjacent_text():
    """Serialized XML would collapse ``('x', 'y')`` vs ``('xy',)`` text
    siblings; the per-node length-prefixed fingerprint must not."""
    db = Database()
    merged = list(db.query('<w>xy</w>'))[0]
    split = list(db.query('<w>{"x"}{"y"}</w>'))[0]
    from repro.xmldb.dom import renumber_fragment
    fp_merged = fragment_fingerprint(renumber_fragment(merged))
    fp_split = fragment_fingerprint(renumber_fragment(split))
    if len(merged.children) != len(split.children):
        assert fp_merged != fp_split
    # same content, distinct fragments -> same fingerprint
    twin = list(db.query('<w>xy</w>'))[0]
    assert fragment_fingerprint(renumber_fragment(twin)) == fp_merged


def test_cli_cache_commands():
    from repro.cli import CliSession

    out = io.StringIO()
    session = CliSession(out=out, plan_cache_size=4)
    session.handle('let $f := <w><x/></w> return $f/child::x')
    session.handle('let $f := <w><x/></w> return $f/child::x')
    session.handle('\\cache stats')
    text = out.getvalue()
    assert "plan cache:" in text and "hits=1" in text
    out.truncate(0)
    out.seek(0)
    session.handle('\\cache clear')
    session.handle('\\cache stats')
    cleared = out.getvalue()
    assert "plan cache cleared" in cleared
    assert "entries=0/4" in cleared
