"""The rewrite pass between parse and loop-lifted evaluation.

``position_free`` is a static classifier, so it gets a table; ``rewrite``
changes what ``ll`` evaluates, so every shape is checked three ways —
``ll`` on the rewritten module, ``ll`` on the raw parse, and the
``basic`` DOM walk must return the same nodes (by identity) in the same
order.
"""

import copy

import pytest

from repro.config import DEFAULT_SERVE_HEAVY_PAIRS, ExecOptions
from repro.serve.server import estimate_pair_budget
from repro.xquery import Database, parse
from repro.xquery.bulk import evaluate_module_bulk
from repro.xquery.context import DynamicContext, Focus
from repro.xquery.parser import parse_expr
from repro.xquery.rewrite import (
    column_predicate,
    column_predicates,
    position_free,
    rewrite,
)

FREE = [
    "@i",
    "u",
    "u/v",
    "a[1]",                          # the literal counts *inside* a
    "descendant::t[@i = 2]",
    '@i = "1"',
    "@i >= 50000",
    "@i eq 1",
    "@i and u",
    "@i or not(u)",
    "not(@i)",
    "exists(u)",
    "empty(u/v)",
    'contains(@i, "x")',
    'starts-with(., "a")',
    "boolean(u)",
    "count(u) = 2",
    "true()",
    "$v = 1",
]

NOT_FREE = [
    "1",
    "1.5",
    '"s"',
    "a[position()=1]",               # conservative: any position() call
    "count(b)",
    "@i + 1",
    "-1",
    "$v",
    "not(last() = 1)",
    "position() = 2",
    "@i and position() < 3",
    "last()",
    "u[last()]",
    "1 to 2",
    "if (u) then 1 else 2",
    "(1, 2)",
    "unknown-function(u)",
    "string-length(@i)",
    "u | v",
    "$v/u",
    "./u",
    "(u)[1]",
    "for $x in u return 1",
    "some $x in u satisfies $x/@i",
]


@pytest.mark.parametrize("predicate", FREE)
def test_position_free(predicate):
    assert position_free(parse_expr(predicate))


@pytest.mark.parametrize("predicate", NOT_FREE)
def test_not_position_free(predicate):
    assert not position_free(parse_expr(predicate))


#: Column terms: the attribute on the left, the general operator,
#: ``single`` for value comparisons, names by their local part.
COLUMN = [
    ("@a", ("exists", "a")),
    ("@p:a", ("exists", "a")),
    ('@a = "x"', ("compare", "a", "=", "x", False)),
    ("@income >= 50000", ("compare", "income", ">=", 50000, False)),
    ('@a != "3"', ("compare", "a", "!=", "3", False)),
    ('"3" > @a', ("compare", "a", "<", "3", False)),
    ("2.5 <= @a", ("compare", "a", ">=", 2.5, False)),
    ('@a eq "x"', ("compare", "a", "=", "x", True)),
    ("@a lt -2", ("compare", "a", "<", -2, True)),
    ("@a ne --1", ("compare", "a", "!=", 1, True)),
    ("not(@a)", ("not", ("exists", "a"))),
    ('@a and not(@b = "1")',
     ("and", ("exists", "a"), ("not", ("compare", "b", "=", "1", False)))),
    ('@a = "1" or @b',
     ("or", ("compare", "a", "=", "1", False), ("exists", "b"))),
]

NOT_COLUMN = [
    "@a = $v",                       # a variable, not a literal
    "@a = (1, 2)",                   # a sequence
    "@a + 1 = 2",                    # arithmetic
    'string(@a) = "x"',              # a function of the attribute
    '@* = "x"',                      # any attribute
    'a = "x"',                       # an element's content
    '@a = @b',
    '"x" = "y"',
    '@a = -"1"',                     # a signed string casts at run time
    "@a = 9007199254740993",         # past float64's exact integers
    '@a is @b',
    "@a[1]",
    "not(u)",
    "@a and u",
    'contains(@a, "x")',
    "1",
    "position() = 1",
]


@pytest.mark.parametrize("predicate,term", COLUMN)
def test_column_predicate(predicate, term):
    assert column_predicate(parse_expr(predicate)) == term
    assert position_free(parse_expr(predicate))


@pytest.mark.parametrize("predicate", NOT_COLUMN)
def test_not_column_predicate(predicate):
    assert column_predicate(parse_expr(predicate)) is None


def test_column_predicates_need_every_predicate():
    def chain(text):
        return parse(f"a{text}").body.predicates

    assert column_predicates(chain('[@a][@b = "1"]')) == [
        ("exists", "a"), ("compare", "b", "=", "1", False)]
    assert column_predicates(chain("[@a][u]")) is None
    assert column_predicates([]) is None


# ----------------------------------------------------------------------
# three-way agreement on fixed shapes
# ----------------------------------------------------------------------

#: Nested same-name elements, attributes on several levels (attribute
#: context nodes), text and a comment between them.
XML = ('<r i="0"><t i="1"><u/>x<t i="2"><u/><u/>y<t/></t></t>'
       '<s i="3"><t i="1">z<t i="4"><u/></t></t><!--c--><t/></s><t/></r>')

#: (query, whether the rewrite changes the module)
SHAPES = [
    ("//t[u]", True),
    ("//t[@i][u]", True),
    ('//t[@i = "1"]', True),
    ("//t[not(u) and @i]", True),
    ("//text()", True),
    ("//*", True),
    ("//node()", True),
    ("$x//t", True),
    ("$x//t[@i]/..", True),
    ("r//s//t", True),
    ("r//t//t", True),
    ("/r/s//t[u]//u", True),
    ("/descendant-or-self::node()/descendant::t", True),
    ("/descendant-or-self::node()/descendant::t[@i]", True),
    ("//@i/..//t", True),
    ("//@i//t", True),
    ("$attrs//t", True),
    ("for $a in //t[@i] return count($a//t)", True),
    ("//t[.//t[u]]", True),
    ("<o>{//t[@i = 2]}</o>//t", True),
    ("count(//s//t[u])", True),
    ("for $n in (1, 2) return //t[@i = $n]", True),
    ("//t[1]", False),
    ("//t[last()]", False),
    ("//t[$n]", False),
    ("//t[@i][1]", False),
    ("(//t)[2]", True),
    ("//@i", False),
    ("//self::t", False),
    ("/descendant-or-self::node()[u]/t", False),
    ("/descendant-or-self::t/t", False),
    ("/r/t/descendant-or-self::node()/following-sibling::t[@i]", False),
]


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.add_document("d", XML)
    return database


def external_variables(db):
    first_t, s = db.query("/r/t[1] | /r/s", context_uri="d")
    return {"x": [first_t, s], "n": [2],
            "attrs": list(db.query("//@i", context_uri="d"))}


def run_raw_ll(db, module, static, variables):
    """``ll`` over *module* exactly as given — what ``Database.query``
    did before the rewrite pass existed."""
    ctx = DynamicContext(db.store, static, ExecOptions(strategy="ll"),
                         blobs=db.blobs)
    ctx.variables.update(variables)
    ctx.focus = Focus(db.document("d").document, 1, 1)
    return evaluate_module_bulk(module, ctx)


def same_items(a, b) -> bool:
    return len(a) == len(b) and all(
        x is y if hasattr(x, "serialize") and not _constructed(x)
        else _text(x) == _text(y) for x, y in zip(a, b))


def _constructed(node) -> bool:
    return node.document is None


def _text(item) -> str:
    return item.serialize() if hasattr(item, "serialize") else repr(item)


@pytest.mark.parametrize("query,fused", SHAPES)
def test_three_way(db, query, fused):
    variables = external_variables(db)
    plan = db.compile(query)
    assert (plan.rewritten != plan.module) == fused
    if not fused:
        assert plan.rewritten is plan.module

    oracle = db.query(query, strategy="basic", context_uri="d",
                      variables=variables)
    rewritten = db.query(query, strategy="ll", context_uri="d",
                         variables=variables)
    raw = run_raw_ll(db, plan.module, plan.static, variables)
    assert rewritten.serialize() == oracle.serialize()
    assert same_items(rewritten, oracle)
    assert same_items(raw, oracle)


def test_fused_pair_is_one_descendant_step(db):
    parsed = parse("$x//t[@i]//u")
    base, t, u = rewrite(parsed).body.steps
    assert base is parsed.body.steps[0]
    assert [(s.axis, str(s.test), s.fused) for s in (t, u)] == [
        ("descendant", "t", True), ("descendant", "u", True)]
    assert t.predicates == parsed.body.steps[2].predicates


def test_only_ll_sees_the_rewrite(db, monkeypatch):
    """``basic`` and ``udf`` must evaluate the parse as written, or the
    differential oracle goes blind to a wrong rewrite."""
    from repro.xquery import evaluator

    seen = []
    real = evaluator.evaluate_module
    monkeypatch.setattr(
        evaluator, "evaluate_module",
        lambda module, ctx: (seen.append(module), real(module, ctx))[1])
    query = 'count(doc("d")//t[@i])'
    for strategy in ("basic", "udf"):
        db.query(query, strategy=strategy)
    plan = db.compile(query)
    assert plan.rewritten != plan.module
    assert all(module == plan.module for module in seen) and len(seen) == 2


# ----------------------------------------------------------------------
# purity
# ----------------------------------------------------------------------

@pytest.mark.parametrize("query", [
    "declare variable $v := //t[@i]; for $a in $v//t let $b := $a//u[1] "
    "where $a//t[u] order by $a//@i return <o a='{$a//t/@i}'>{$b//t}</o>",
    "//t[.//t[.//u]]//u",
    "some $x in //t satisfies count($x//t[@i]) > 1",
    "if (//t[1]) then //t else (//u, 1 to count(//t//u))",
])
def test_rewrite_never_mutates(query):
    module = parse(query)
    pristine = copy.deepcopy(module)
    rewritten = rewrite(module)
    assert rewritten != module
    assert module == pristine
    assert rewrite(module) == rewritten       # and is deterministic


def test_module_with_functions_is_left_alone():
    module = parse("declare function local:not($x) { 1 }; "
                   "//t[local:not(.)]")
    assert rewrite(module) is module


# ----------------------------------------------------------------------
# admission control sees the same lane either way
# ----------------------------------------------------------------------

#: ``benchmarks/e2e/workloads.py``'s served texts.
POINT = 'doc("d")//open_auction[@id="open_auction7"]/bidder[1]'
SCAN = ('for $a in doc("d")//open_auction '
        'return count($a/descendant::bidder)')


@pytest.mark.parametrize("text", [POINT, SCAN])
def test_pair_budget_lane_unchanged(db, text):
    plan = db.compile(text)
    assert plan.rewritten != plan.module
    parsed = estimate_pair_budget(db, plan.module)
    rewritten = estimate_pair_budget(db, plan.rewritten)
    assert parsed == rewritten
    assert (parsed >= DEFAULT_SERVE_HEAVY_PAIRS) \
        == (rewritten >= DEFAULT_SERVE_HEAVY_PAIRS)
