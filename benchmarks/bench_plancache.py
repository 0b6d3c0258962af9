"""The compiled-plan cache, warm vs cold.

A parse-heavy batch (prolog function declarations, nested FLWOR,
chained predicates) over a tiny document, so compilation dominates
evaluation.  Warm (LRU enabled) vs cold (``plan_cache_size=0``, every
query re-parses).

The trajectory harness (``run_all.py``, scenario family
``plancache.*``) carries these as committed trajectory points; this
file keeps the pytest-benchmark view.
"""

import pytest

from repro.xquery import Database

XML = "<r><a i='1'><b>t</b></a><a i='2'><c/></a></r>"
PROLOG = ("declare function local:pick($s, $k) "
          "{ for $x in $s where $x/@i = $k return $x };\n")
QUERIES = tuple(
    PROLOG
    + f'for $a in local:pick(doc("t.xml")/r/child::a, "{k % 2 + 1}") '
      f"return count($a/descendant-or-self::node()"
      f"[position() mod {d} = 1])"
    for k in range(8) for d in (2, 3)
) + tuple(
    f'doc("t.xml")/r/child::a[@i = "{k % 2 + 1}"]'
    f"/child::*[1]/ancestor-or-self::node()[last()]"
    for k in range(8)
)


def _database(plan_cache_size):
    db = Database(plan_cache_size=plan_cache_size)
    db.add_document("t.xml", XML)
    return db


def _batch(db):
    for query in QUERIES:
        db.query(query, strategy="basic")


@pytest.mark.parametrize("size", [256, 0], ids=["warm", "cold"])
def test_plan_cache_batch(benchmark, size):
    db = _database(size)
    _batch(db)    # prime: the warm arm's one-time parse round
    benchmark(lambda: _batch(db))
    stats = db.plan_cache.stats()
    if size:
        assert stats["hits"] > 0
    else:
        assert stats["entries"] == 0

