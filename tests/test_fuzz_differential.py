"""Randomized differential fuzz oracle for the sharded engine.

A seeded generator produces random XML trees and random multi-step
path/predicate queries; the loop-lifted engine must agree *exactly*
(serialized output) with the DOM-walk oracle — the ``basic`` strategy's
iterative evaluator — for every kernel choice crossed with
``workers`` ∈ {serial, 4} (``shard_min_rows=1`` forces the fan-out
path even on these small documents).  The PR 8 matrix extends the
cross with ``executor`` ∈ {thread, process} × storage backend ∈
{memory, mmap}: process-pool workers re-open the memory-mapped store
and re-derive their candidate pools, and memory-backed documents
degrade the process executor to threads — none of which may change a
single serialized byte.

Random predicates include attribute compares that the engine decides
on dictionary-encoded attribute columns; some of them raise in the
oracle (a failed number cast, a value comparison over two attributes),
and then the engine must raise the same error code.

Beyond the stored-document paths, dedicated fuzz targets pin the
corners that previously fell off the kernel path: the sibling axes
(including attribute anchors — which have no siblings — and merged
text-node siblings), *constructed-fragment* contexts, which now
shred on demand instead of dropping to the DOM walk, StandOff steps
over several constructed fragments met in a different order in every
iteration, ``for`` loops over paths, whose node sequences stay
``(iter, pre)`` columns from one join to the next, and predicate
chains that mix column terms, positions and per-item tests, one stage
per predicate on the join's rows.

Seeds are fixed: every failure is reproducible from the printed
(seed, query) pair.  The whole module is budgeted at roughly two
seconds so it stays in the tier-1 suite.
"""

import random

import pytest

from repro.config import (
    KERNEL_LL,
    KERNEL_VECTORIZED,
    WORKERS_SERIAL,
)
from repro.errors import XQueryError
from repro.xquery import Database

TAGS = ("a", "b", "c", "d")

AXES = (
    "child", "descendant", "descendant-or-self", "self", "parent",
    "ancestor", "ancestor-or-self", "following", "preceding",
    "following-sibling", "preceding-sibling",
)

KERNELS_UNDER_TEST = (KERNEL_LL, KERNEL_VECTORIZED)
WORKERS_UNDER_TEST = (WORKERS_SERIAL, 4)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def random_xml(rng: random.Random, max_nodes: int = 45, *,
               regions: bool = False) -> str:
    """A random element tree with attributes, text and comments.

    ``i`` is usually a digit but sometimes ``x``, which no number cast
    accepts, and a prefixed ``p:i`` shares its local name — both corners
    of attribute value compares (``[@i >= 2]`` over ``<a p:i="1"
    i="x"/>`` raises ``err:FORG0001`` in the oracle).  With *regions*,
    most elements also carry a random ``start``/``end`` region, so the
    StandOff axes have annotations to join."""
    budget = [rng.randrange(8, max_nodes)]

    def element(depth: int) -> str:
        budget[0] -= 1
        tag = rng.choice(TAGS)
        attrs = ""
        if rng.random() < 0.08:
            attrs = f' p:i="{rng.randrange(9)}"'
        if rng.random() < 0.3:
            value = "x" if rng.random() < 0.1 else rng.randrange(9)
            attrs += f' i="{value}"'
        if rng.random() < 0.15:
            attrs += f' j="{rng.randrange(9)}"'
        if regions and rng.random() < 0.8:
            start = rng.randrange(100)
            attrs += f' start="{start}" end="{start + rng.randrange(40)}"'
        children: list[str] = []
        while budget[0] > 0 and depth < 5 \
                and rng.random() < (0.75 if depth < 2 else 0.45):
            roll = rng.random()
            if roll < 0.6:
                children.append(element(depth + 1))
            elif roll < 0.85:
                children.append(f"t{rng.randrange(99)}")
                budget[0] -= 1
            else:
                children.append("<!--c-->")
                budget[0] -= 1
        return f"<{tag}{attrs}>{''.join(children)}</{tag}>"

    elements = "".join(element(0) for _ in range(rng.randrange(1, 4)))
    return f'<r xmlns:p="urn:p">{elements}</r>'


def random_predicate(rng: random.Random) -> str:
    """Position-free and positional predicates alike: the first kind
    lets the rewrite fuse a ``//`` step and filter after the join — on
    the attribute columns where every predicate is a column term, per
    item otherwise — the second must keep both steps and count per
    context node."""
    n = rng.randrange(9)
    return rng.choice((
        f"[{rng.choice(TAGS)}]",
        "[@i]",
        f'[@i = "{n}"]',
        f"[@i >= {n}]",
        f'[@i != "{n}"]',
        f'["{n}" > @i]',
        f'[@i eq "{n}"]',
        f'[@i and not(@j = "{n}")]',
        f'[@i = "{n}" or @j]',
        f"[not(@j) or {rng.choice(TAGS)}]",
        f"[{rng.randrange(1, 3)}]",
        "[last()]",
        f"[position() > {rng.randrange(1, 3)}]",
        f"[@i][{rng.randrange(1, 3)}]",
    ))


def random_step(rng: random.Random) -> str:
    axis = rng.choice(AXES)
    test = rng.choice((*TAGS, "*", "node()", "text()"))
    if test == "text()" and rng.random() < 0.5:
        test = "node()"
    step = f"{axis}::{test}"
    if rng.random() < 0.3 and not test.endswith(")"):
        step += random_predicate(rng)
    return step


def abbreviated_step(rng: random.Random) -> str:
    """The step after a ``//``: a child name test, usually predicated."""
    step = rng.choice((*TAGS, "*"))
    if rng.random() < 0.6:
        step += random_predicate(rng)
    return step


def random_query(rng: random.Random) -> str:
    # A step that starts with "/" turns the joining "/" into "//".
    steps = "/".join("/" + abbreviated_step(rng) if rng.random() < 0.3
                     else random_step(rng)
                     for _ in range(rng.randrange(1, 4)))
    base = rng.choice((f'doc("f.xml")//{abbreviated_step(rng)}',
                       'doc("f.xml")/r'))
    path = f"{base}/{steps}"
    if rng.random() < 0.25:
        return f"for $x in {base} return count($x/{steps})"
    return path


# ----------------------------------------------------------------------
# the oracle check
# ----------------------------------------------------------------------

def outcome(db: Database, query: str, **options) -> str:
    """The serialized answer, or the error code a query raises — the
    engine must raise where the oracle raises, with the same code."""
    try:
        return db.query(query, **options).serialize()
    except XQueryError as error:
        return f"raised {error.code}"


def assert_engine_matches_oracle(seed: int, n_queries: int) -> None:
    rng = random.Random(seed)
    db = Database()
    db.add_document("f.xml", random_xml(rng))
    for _ in range(n_queries):
        query = random_query(rng)
        oracle = outcome(db, query, strategy="basic")
        for kernel in KERNELS_UNDER_TEST:
            for workers in WORKERS_UNDER_TEST:
                got = outcome(db, query, strategy="ll", kernel=kernel,
                              workers=workers, shard_min_rows=1)
                assert got == oracle, (seed, query, kernel, workers)


@pytest.mark.parametrize("seed", range(5000, 5008))
def test_fuzz_engine_vs_dom_walk(seed):
    assert_engine_matches_oracle(seed, n_queries=3)


def attribute_predicate(rng: random.Random) -> str:
    """Predicates made of column terms only: attribute compares against
    literals (general and value, either side), existence, ``not``,
    ``and``/``or`` and chains."""
    n = rng.randrange(9)
    return rng.choice((
        f"[@i >= {n}]",
        f'[@i != "{n}"]',
        f'["{n}" > @i]',
        f'[@i eq "{n}"]',
        f'[@i and not(@j = "{n}")]',
        f'[@i = "{n}" or @j]',
        f"[@i lt {n}]",
        f"[not(@i = {n})]",
        "[@p:i]",
        f"[@j][@i != {n}]",
    ))


def test_fuzz_attribute_predicates():
    """Column-term predicates on Staircase steps, including documents
    where some compare raises (``i="x"`` fails the number cast, ``i``
    next to ``p:i`` is two items for ``eq``): the engine raises the
    oracle's error code or returns its answer, under every kernel ×
    workers setting."""
    raised = answered = 0
    for seed in range(7000, 7006):
        rng = random.Random(seed)
        db = Database()
        db.add_document("f.xml", random_xml(rng, max_nodes=60))
        for _ in range(6):
            predicate = attribute_predicate(rng)
            query = rng.choice((
                f'doc("f.xml")//{rng.choice((*TAGS, "*"))}{predicate}',
                f'doc("f.xml")/r/{rng.choice(AXES)}::*{predicate}',
                f'for $x in doc("f.xml")//* '
                f"return count($x/child::*{predicate})"))
            oracle = outcome(db, query, strategy="basic")
            raised += oracle.startswith("raised")
            answered += bool(oracle) and not oracle.startswith("raised")
            for kernel in KERNELS_UNDER_TEST:
                for workers in WORKERS_UNDER_TEST:
                    got = outcome(db, query, strategy="ll", kernel=kernel,
                                  workers=workers, shard_min_rows=1)
                    assert got == oracle, (seed, query, kernel, workers)
    assert raised and answered, (raised, answered)


def test_fuzz_standoff_joins(seed=7100):
    """Random region annotations: the StandOff axes under every kernel
    and worker setting against the basic-strategy result."""
    rng = random.Random(seed)
    for _trial in range(3):
        n = rng.randrange(8, 30)
        parts = []
        for i in range(n):
            start = rng.randrange(200)
            end = start + rng.randrange(1, 60)
            inner = ""
            if rng.random() < 0.4:
                s2 = start + rng.randrange(1, 10)
                k = f' k="{rng.randrange(3)}"' if rng.random() < 0.7 else ""
                inner = (f'<shot start="{s2}" '
                         f'end="{s2 + rng.randrange(1, 10)}"{k}/>')
            parts.append(f'<music start="{start}" end="{end}">'
                         f'{inner}</music>')
        db = Database()
        db.add_document("v.xml", f"<doc>{''.join(parts)}</doc>")
        for op in ("select-wide", "select-narrow", "reject-wide",
                   "reject-narrow"):
            # the shots' own attribute predicate filters the join's
            # columnar result
            test = rng.choice(("shot", f'shot[@k = "{rng.randrange(3)}"]',
                               f"shot[@start >= {rng.randrange(200)}]",
                               "shot[not(@k)]"))
            query = (f'for $m in doc("v.xml")//music '
                     f'return count($m/{op}::{test})')
            oracle = db.query(query, strategy="basic").serialize()
            for kernel in KERNELS_UNDER_TEST:
                for workers in WORKERS_UNDER_TEST:
                    got = db.query(query, strategy="ll", kernel=kernel,
                                   workers=workers,
                                   shard_min_rows=1).serialize()
                    assert got == oracle, (seed, query, kernel, workers)


STANDOFF_AXES = ("select-narrow", "select-wide", "reject-narrow",
                 "reject-wide")


#: Axes that usually reach something from an element of a small tree.
FLWOR_AXES = ("child", "child", "descendant", "descendant-or-self",
              "ancestor", "parent", "self", "following-sibling",
              "preceding")


def relative_path(rng: random.Random) -> str:
    """One or two steps from a bound node: tree axes with the usual
    predicates, or StandOff joins."""
    steps = []
    for _ in range(rng.randrange(1, 3)):
        if rng.random() < 0.35:
            step = f"{rng.choice(STANDOFF_AXES)}::{rng.choice((*TAGS, '*'))}"
            if rng.random() < 0.3:
                step += rng.choice(
                    ("[@i]", "[1]", f'[@i = "{rng.randrange(9)}"]'))
        else:
            test = rng.choice((*TAGS, "*", "*", "node()", "text()"))
            step = f"{rng.choice(FLWOR_AXES)}::{test}"
            if rng.random() < 0.25 and not test.endswith(")"):
                step += random_predicate(rng)
        steps.append(step)
    return "/".join(steps)


def flwor_query(rng: random.Random) -> str:
    """``for $x [at $i] in <path> [let] [where] return <path from $x>``
    over the stored document or a fragment constructed from it, the
    body one of: a path, ``count``/``empty``/``exists`` of one, an
    ``if (count(…))``, a nested ``for $y [at $j] in $x/<path>``."""
    constructed = rng.random() < 0.4
    root = "$f" if constructed else 'doc("f.xml")/r'
    source = rng.choice(("{root}//{tag}", "{root}/*", "{root}//*[@i]"))
    clauses = ['let $f := <w>{doc("f.xml")/r/node()}</w>'] \
        if constructed else []
    at = rng.random() < 0.3
    clauses.append(f'for $x{" at $i" if at else ""} in '
                   + source.format(root=root, tag=rng.choice(TAGS)))
    bodies = [f"$x/{relative_path(rng)}",
              f"count($x/{relative_path(rng)})",
              f"empty($x/{relative_path(rng)})",
              f"exists($x/{relative_path(rng)})",
              f"if (count($x/{relative_path(rng)})) "
              f"then $x/{relative_path(rng)} else ()",
              f"for $y in $x/{relative_path(rng)} "
              f"return $y/{relative_path(rng)}",
              f"for $y in $x/{relative_path(rng)} "
              f"return count($y/{relative_path(rng)})",
              f"for $y at $j in $x/{relative_path(rng)} "
              f"return ($j, $y/{relative_path(rng)})"]
    if rng.random() < 0.3:
        clauses.append(f"let $z := $x/{relative_path(rng)}")
        bodies.append(f"($z, count($z/{relative_path(rng)}))")
        bodies.append(f"for $y in $x/{relative_path(rng)} "
                      f"return ($y/{relative_path(rng)}, count($z))")
    conditions = [f"exists($x/{relative_path(rng)})",
                  f"count($x/{relative_path(rng)}) > {rng.randrange(3)}",
                  f"empty($x/{relative_path(rng)})",
                  f'$x/@i = "{rng.randrange(9)}"',
                  f"$x/@i >= {rng.randrange(9)}"]
    if at:
        conditions += ["$i mod 2 = 1", f"$i <= {rng.randrange(1, 4)}"]
        bodies.append(f"($i, $x/{relative_path(rng)})")
    if rng.random() < 0.4:
        clauses.append(f"where {rng.choice(conditions)}")
    return " ".join(clauses) + f" return {rng.choice(bodies)}"


def test_fuzz_flwor_over_paths():
    """A ``for`` over a path binds its variable as the join's columns
    and the body's steps, ``count``/``empty``/``exists`` and nested
    loops consume them undecoded; on stored and constructed fragments,
    with tree and StandOff steps, every kernel × workers setting must
    answer (or raise) exactly as the DOM-walk oracle."""
    queries = answered = 0
    for seed in range(11000, 11008):
        rng = random.Random(seed)
        db = Database()
        db.add_document("f.xml",
                        random_xml(rng, max_nodes=70, regions=True))
        for _ in range(12):
            query = flwor_query(rng)
            oracle = outcome(db, query, strategy="basic")
            queries += 1
            answered += bool(oracle) and not oracle.startswith("raised")
            for kernel in KERNELS_UNDER_TEST:
                for workers in WORKERS_UNDER_TEST:
                    got = outcome(db, query, strategy="ll", kernel=kernel,
                                  workers=workers, shard_min_rows=1)
                    assert got == oracle, (seed, query, kernel, workers)
    assert answered >= queries // 3, (answered, queries)


SIBLING_AXES = ("following-sibling", "preceding-sibling")

#: Constructed-fragment query templates: a fragment built per iteration
#: from stored content (copied children, attributes, merged text), then
#: axis-stepped — exercising the shred-on-demand path.  ``{axis}`` and
#: ``{test}`` are filled per trial.
CONSTRUCTED_TEMPLATES = (
    'for $x in doc("f.xml")//{tag} '
    'let $f := <w p="1" q="2">{{$x/child::node()}}</w> '
    'return $f/{axis}::{test}',
    'for $x in doc("f.xml")//{tag} '
    'let $f := <w>head{{$x/child::node()}}tail<z/>{{$x/@i}}</w> '
    'return count($f/child::node()/{axis}::{test})',
    'for $x in doc("f.xml")//{tag} '
    'let $f := <w><u>{{$x/text()}}</u>mid{{$x/{tag}}}</w> '
    'return $f/descendant-or-self::node()/{axis}::{test}',
    '(doc("f.xml")/r, <w><a i="5"/>t<b/></w>)/{axis}::{test}',
)


def test_fuzz_sibling_axes(seed=8200):
    """Sibling-axis steps under every kernel and worker setting against
    the DOM-walk oracle — anchored on elements, attributes (which have
    no siblings) and text nodes."""
    rng = random.Random(seed)
    anchors = (
        "child::*", "descendant::node()", "child::text()",
        "descendant-or-self::*/@i", "child::node()",
    )
    for _trial in range(4):
        db = Database()
        db.add_document("f.xml", random_xml(rng))
        for _q in range(4):
            axis = rng.choice(SIBLING_AXES)
            test = rng.choice((*TAGS, "*", "node()", "text()"))
            query = (f'doc("f.xml")/r/{rng.choice(anchors)}'
                     f'/{axis}::{test}')
            oracle = db.query(query, strategy="basic").serialize()
            for kernel in KERNELS_UNDER_TEST:
                for workers in WORKERS_UNDER_TEST:
                    got = db.query(query, strategy="ll", kernel=kernel,
                                   workers=workers,
                                   shard_min_rows=1).serialize()
                    assert got == oracle, (seed, query, kernel, workers)


def test_fuzz_constructed_fragment_contexts(seed=9300):
    """Axis steps over constructed fragments (shredded on demand) must
    match the DOM-walk oracle for every kernel and worker setting —
    including merged text-node siblings and attribute content."""
    rng = random.Random(seed)
    for _trial in range(3):
        db = Database()
        db.add_document("f.xml", random_xml(rng))
        for template in CONSTRUCTED_TEMPLATES:
            axis = rng.choice((*SIBLING_AXES, "descendant", "child",
                               "ancestor", "following", "preceding"))
            test = rng.choice((*TAGS, "*", "node()", "text()"))
            query = template.format(tag=rng.choice(TAGS), axis=axis,
                                    test=test)
            oracle = db.query(query, strategy="basic").serialize()
            for kernel in KERNELS_UNDER_TEST:
                for workers in WORKERS_UNDER_TEST:
                    got = db.query(query, strategy="ll", kernel=kernel,
                                   workers=workers,
                                   shard_min_rows=1).serialize()
                    assert got == oracle, (seed, query, kernel, workers)


#: Positional-predicate pool: numeric literals, ``position()``
#: arithmetic (every operator the columnar compiler accepts),
#: ``last()``, boolean combinators and chained predicates.  Each one
#: must compile onto the CSR position/length columns — and where it
#: cannot (the DOM-walk fallback), still agree with the oracle.
POSITIONAL_PREDICATES = (
    "[1]", "[2]", "[3]", "[last()]", "[last() - 1]",
    "[position() = 2]", "[position() != 2]", "[position() < 3]",
    "[position() <= 2]", "[position() >= 2]", "[position() > 1]",
    "[position() mod 2 = 1]", "[position() mod 2 = 0]",
    "[position() = last()]", "[position() < last()]",
    "[(position() + 1) idiv 2]", "[position() * 2 - 1]",
    "[last() idiv 2 + 1]", "[-position() + 3]",
    "[not(position() = 1)]",
    "[position() > 1 and position() < 4]",
    "[position() = 1 or position() = last()]",
)

#: Reverse axes flip positional order (position 1 = nearest in reverse
#: document order); keep them over-represented in the positional fuzz.
REVERSE_FUZZ_AXES = ("parent", "ancestor", "ancestor-or-self",
                     "preceding", "preceding-sibling")


def random_positional_step(rng: random.Random) -> str:
    if rng.random() < 0.45:
        axis = rng.choice(REVERSE_FUZZ_AXES)
    else:
        axis = rng.choice(AXES)
    test = rng.choice((*TAGS, "*", "node()", "text()"))
    step = f"{axis}::{test}" + rng.choice(POSITIONAL_PREDICATES)
    if rng.random() < 0.3:
        step += rng.choice(POSITIONAL_PREDICATES)
    return step


@pytest.mark.parametrize("seed", range(6000, 6006))
def test_fuzz_positional_predicates(seed):
    """Positional predicates — ``position()`` arithmetic, ``last()``,
    chained predicates, reverse axes — under every kernel × workers
    setting must serialize identically to the DOM-walk oracle."""
    rng = random.Random(seed)
    db = Database()
    db.add_document("f.xml", random_xml(rng))
    anchors = (f'doc("f.xml")//{rng.choice(TAGS)}',
               'doc("f.xml")/r', 'doc("f.xml")//node()')
    for _q in range(4):
        steps = "/".join(random_positional_step(rng)
                         for _ in range(rng.randrange(1, 3)))
        query = f"{rng.choice(anchors)}/{steps}"
        if rng.random() < 0.25:
            query = f"count({query})"
        oracle = db.query(query, strategy="basic").serialize()
        for kernel in KERNELS_UNDER_TEST:
            for workers in WORKERS_UNDER_TEST:
                got = db.query(query, strategy="ll", kernel=kernel,
                               workers=workers, shard_min_rows=1).serialize()
                assert got == oracle, (seed, query, kernel, workers)


def test_fuzz_positional_constructed_fragments(seed=6500):
    """Positional predicates over constructed-fragment contexts run on
    the per-query fragment shreds; answers must stay oracle-identical."""
    rng = random.Random(seed)
    for _trial in range(2):
        db = Database()
        db.add_document("f.xml", random_xml(rng))
        for template in CONSTRUCTED_TEMPLATES[:3]:
            axis = rng.choice((*REVERSE_FUZZ_AXES, "child",
                               "descendant", "following-sibling"))
            test = rng.choice(("*", "node()"))
            query = template.format(tag=rng.choice(TAGS), axis=axis,
                                    test=test)
            # graft a positional predicate onto the final step
            query += rng.choice(POSITIONAL_PREDICATES)
            oracle = db.query(query, strategy="basic").serialize()
            for kernel in KERNELS_UNDER_TEST:
                for workers in WORKERS_UNDER_TEST:
                    got = db.query(query, strategy="ll", kernel=kernel,
                                   workers=workers,
                                   shard_min_rows=1).serialize()
                    assert got == oracle, (seed, query, kernel, workers)


def region_fragments(rng: random.Random, names) -> list[str]:
    """Constructed fragments of one random shape, each with its own
    random regions: the nodes at one pre rank share a tag, so their
    document-order keys tie across fragments."""
    def element(depth: int) -> str:
        tag = rng.choice(TAGS)
        children = "".join(element(depth + 1)
                           for _ in range(rng.randrange(3 - depth)))
        return f"<{tag} {{}}>{children}</{tag}>"

    body = "".join(element(1) for _ in range(rng.randrange(1, 3)))
    fragments = []
    for name in names:
        template = f"<{name} {{}}>{body}</{name}>"
        regions = []
        for _ in range(template.count("{}")):
            start = rng.randrange(60)
            regions.append(
                f'start="{start}" end="{start + rng.randrange(1, 40)}"')
        fragments.append(template.format(*regions))
    return fragments


def test_fuzz_standoff_constructed_fragments(seed=6600):
    """StandOff steps over two or three constructed fragments, met in a
    different order in every iteration: all four operators, with no
    predicate, a column term, a position or a per-item test, under
    every pushdown policy — ``udf``, ``basic`` and ``ll`` answer (or
    raise) identically."""
    rng = random.Random(seed)
    db = Database()
    answered = 0
    predicates = ("", "[@start >= 10]", '[@end = "30" or @start < 20]',
                  "[1]", "[last()]", "[2]", "[*]", "[@start + 0 > 15]")
    for _trial in range(6):
        names = ("f", "g", "h")[:rng.randrange(2, 4)]
        lets = "".join(f"let ${name} := {fragment} " for name, fragment
                       in zip(names, region_fragments(rng, names)))
        orders = []
        for _it in range(3):
            order = list(names)
            rng.shuffle(order)
            orders.append("(" + ", ".join(f"${n}" for n in order) + ")")
        context = (f"if ($i = 1) then {orders[0]} "
                   f"else if ($i = 2) then {orders[1]} else {orders[2]}")
        for _q in range(3):
            op = rng.choice(STANDOFF_AXES)
            test = rng.choice((*TAGS, "*"))
            query = (f"{lets}for $i in (1, 2, 3) return "
                     f"({context})/{op}::{test}{rng.choice(predicates)}")
            for pushdown in ("always", "never", "auto"):
                oracle = outcome(db, query, strategy="basic",
                                 pushdown=pushdown)
                answered += bool(oracle) and not oracle.startswith("raised")
                for strategy in ("udf", "ll"):
                    got = outcome(db, query, strategy=strategy,
                                  pushdown=pushdown)
                    assert got == oracle, (seed, query, strategy, pushdown)
    assert answered >= 18, answered


def test_positional_division_by_zero_matches_oracle():
    """Eagerly vectorized arithmetic must raise the same err:FOAR0001
    the per-item oracle raises — and must refuse to compile ``and``/
    ``or`` over operands that may raise, preserving short-circuits."""
    from repro.errors import XQueryDynamicError

    db = Database()
    db.add_document("f.xml", "<r><a/><a/><a/></r>")
    query = 'doc("f.xml")/r/child::a[position() mod (position() - 1) = 0]'
    with pytest.raises(XQueryDynamicError) as oracle_err:
        db.query(query, strategy="basic")
    with pytest.raises(XQueryDynamicError) as ll_err:
        db.query(query, strategy="ll")
    assert oracle_err.value.code == ll_err.value.code == "err:FOAR0001"
    # short-circuit guard: the oracle never reaches the division for
    # position 1, so neither may the kernel path
    guarded = ('doc("f.xml")/r/child::a'
               '[position() > 1 and position() mod (position() - 1) = 0]')
    oracle = db.query(guarded, strategy="basic").serialize()
    for kernel in KERNELS_UNDER_TEST:
        got = db.query(guarded, strategy="ll", kernel=kernel,
                       workers=4, shard_min_rows=1).serialize()
        assert got == oracle, kernel


def test_positional_compiler_covers_the_pool():
    """The predicate pool above must actually exercise the columnar
    compiler: every entry without a known bail-out reason is a position
    stage with a compiled mask."""
    from repro.xquery import bulk
    from repro.xquery.parser import parse

    for predicate in POSITIONAL_PREDICATES:
        module = parse(f'doc("f.xml")/r/child::a{predicate}')
        route, stages = bulk.step_route(module.body.steps[-1])
        assert route == "join" and len(stages) == 1, predicate
        (kind, masker), = stages
        assert kind == "positions" and masker is not None, predicate


#: A predicate of every stage kind: column terms, compiled positions,
#: position-free per-item tests, and ones that read ``$n`` (a per-item
#: compare, positions that do not compile).
CHAIN_PREDICATES = (
    "[@i]", '[@i = "1"]', "[@i >= 2]", "[not(@j)]",
    "[1]", "[2]", "[last()]", "[position() mod 2 = 1]",
    "[b]", '[c or @i = "2"]', "[*]", "[not(text())]",
    "[$n]", "[position() <= $n + 1]", "[not(@i = $n)]", "[last() - $n]",
)

#: Every axis a join runs: the Staircase axes and the StandOff operators.
CHAIN_AXES = ("child", "descendant", "descendant-or-self", "ancestor",
              "ancestor-or-self", "following", "preceding",
              "following-sibling", "preceding-sibling", *STANDOFF_AXES)


@pytest.mark.parametrize("seed", range(6700, 6704))
def test_fuzz_predicate_chains(seed):
    """Chains of one to three predicates of mixed stage kinds on every
    join axis, from a stored document, a constructed fragment and both
    at once: each predicate is its own stage on the join's rows, and
    ``ll`` answers (or raises) as the ``basic`` oracle does."""
    rng = random.Random(seed)
    db = Database()
    db.add_document("f.xml", random_xml(rng, 90, regions=True))
    (fragment,) = region_fragments(rng, ("u",))
    contexts = (f'doc("f.xml")//{rng.choice(TAGS)}', 'doc("f.xml")/r/*',
                "$f//*", f'($f, doc("f.xml")//{rng.choice(TAGS)})')
    answered = 0
    for _q in range(10):
        chain = "".join(rng.choice(CHAIN_PREDICATES)
                        for _ in range(rng.choice((1, 1, 1, 2, 2, 3))))
        query = (f"let $f := {fragment} for $n in (1, 2) return "
                 f"{rng.choice(contexts)}/{rng.choice(CHAIN_AXES)}::"
                 f"{rng.choice(('*', '*', '*', rng.choice(TAGS)))}{chain}")
        oracle = outcome(db, query, strategy="basic")
        answered += bool(oracle) and not oracle.startswith("raised")
        for kernel in KERNELS_UNDER_TEST:
            for workers in WORKERS_UNDER_TEST:
                got = outcome(db, query, strategy="ll", kernel=kernel,
                              workers=workers, shard_min_rows=1)
                assert got == oracle, (seed, query, kernel, workers)
    assert answered >= 3, answered


#: Two constructed region fragments, met in a different order in each
#: of two iterations.
TWO_FRAGMENT_LOOP = (
    'let $a := <u start="0" end="9"><x start="1" end="2"/></u> '
    'let $b := <v start="0" end="9"><y start="3" end="4"/></v> '
    'for $i in (1, 2) return (if ($i = 1) then ($b, $a) else ($a, $b))')


def test_cross_fragment_tie_break_matches_oracle():
    """Two transient fragments share doc id -1, so their nodes can tie
    on (doc id, pre); the DOM walk breaks ties by per-iteration context
    order, and the StandOff step concatenates an iteration's fragments
    in the order they first appear in it.  The kernel path must
    reproduce that exactly — including when the fragments' first
    appearance (in an earlier iteration) differs from a later
    iteration's context order."""
    db = Database()
    db.add_document("d.xml", "<r><a/></r>")
    queries = [
        'let $a := <u><x/></u> let $b := <v><y/></v> '
        'for $i in (1, 2) return '
        '(if ($i = 1) then $b else ($a, $b))/child::*',
        'let $a := <u><x/><w/></u> let $b := <v><y/></v> '
        'return ($a, $b, $a)/child::*',
        # u's first row yields nothing; its tied x comes after v's y
        'let $a := <u><x/><w/></u> let $b := <v><y/></v> '
        'return ($a/child::x, $b, $a)/child::*',
        'let $a := <u><x/></u> let $b := <v><y/></v> '
        'return ($b/child::*, $a/child::*)'
        '/following-sibling::node()',
        'let $a := <u><x/></u> '
        'return (doc("d.xml")/r, $a)/child::*',
        TWO_FRAGMENT_LOOP + '/select-narrow::*[1]',
        TWO_FRAGMENT_LOOP + '/select-narrow::*',
        TWO_FRAGMENT_LOOP + '/select-narrow::*[@start = 1 or @start = 3]',
        TWO_FRAGMENT_LOOP + '/child::*',
    ]
    for query in queries:
        oracle = db.query(query, strategy="basic").serialize()
        assert db.query(query, strategy="udf").serialize() == oracle, query
        for kernel in KERNELS_UNDER_TEST:
            for workers in WORKERS_UNDER_TEST:
                got = db.query(query, strategy="ll",
                               kernel=kernel, workers=workers,
                               shard_min_rows=1).serialize()
                assert got == oracle, (query, kernel, workers)


def test_merged_text_node_siblings():
    """Constructed content merges adjacent text into one node; sibling
    enumeration over the merged node must agree with the oracle (the
    stale-node corner the DOM walk guards with an identity scan)."""
    db = Database()
    db.add_document("f.xml", "<r><a>x</a><a>y</a></r>")
    queries = [
        'let $f := <w>{doc("f.xml")//a/text()}</w> '
        'return $f/child::text()/following-sibling::node()',
        'let $f := <w>a{"b"}c<m/>d{"e"}</w> '
        'return $f/child::m/preceding-sibling::text()',
        'let $f := <w>a{"b"}c<m/>d{"e"}</w> '
        'return count($f/child::text()/following-sibling::m)',
    ]
    for query in queries:
        oracle = db.query(query, strategy="basic").serialize()
        for kernel in KERNELS_UNDER_TEST:
            got = db.query(query, strategy="ll", kernel=kernel, workers=4,
                           shard_min_rows=1).serialize()
            assert got == oracle, (query, kernel)


#: The executor/backend cross (PR 8): the process-pool executor over
#: memory-mapped stores may change where shards run, never what they
#: compute.  Memory-backed documents have no store file, so the process
#: executor degrades to threads there — that degradation must be
#: answer-invisible too.
EXECUTORS_UNDER_TEST = ("thread", "process")
BACKENDS_UNDER_TEST = ("memory", "mmap")


def test_fuzz_executor_backend_matrix(seed=10400):
    """Every kernel × workers × executor × storage backend combination
    must serialize identically to the serial in-memory oracle — the
    PR 8 acceptance matrix, on randomized trees and queries."""
    rng = random.Random(seed)
    xml = random_xml(rng, max_nodes=60)
    queries = [random_query(rng) for _ in range(3)]
    queries.append('doc("f.xml")/r/descendant::*'
                   '/following-sibling::node()')
    databases = {}
    for backend in BACKENDS_UNDER_TEST:
        db = Database(storage_backend=backend)
        db.add_document("f.xml", xml)
        databases[backend] = db
    oracle_db = databases["memory"]
    for query in queries:
        oracle = outcome(oracle_db, query, strategy="basic")
        for backend, db in databases.items():
            for kernel in KERNELS_UNDER_TEST:
                for workers in WORKERS_UNDER_TEST:
                    for executor in EXECUTORS_UNDER_TEST:
                        got = outcome(
                            db, query, strategy="ll", kernel=kernel,
                            workers=workers, shard_min_rows=1,
                            executor=executor)
                        assert got == oracle, (seed, query, backend,
                                               kernel, workers,
                                               executor)


def test_fuzz_standoff_executor_matrix(seed=10500):
    """StandOff joins under the full executor × backend cross — the
    process path re-derives candidate pushdowns worker-side, which must
    be invisible in the answers."""
    rng = random.Random(seed)
    parts = []
    for _i in range(30):
        start = rng.randrange(150)
        end = start + rng.randrange(1, 40)
        parts.append(f'<music start="{start}" end="{end}">'
                     f'<shot start="{start + 1}" end="{end}"/></music>')
    xml = f"<doc>{''.join(parts)}</doc>"
    databases = {}
    for backend in BACKENDS_UNDER_TEST:
        db = Database(storage_backend=backend)
        db.add_document("v.xml", xml)
        databases[backend] = db
    for op in ("select-wide", "reject-narrow"):
        query = (f'for $m in doc("v.xml")//music '
                 f'return count($m/{op}::shot)')
        oracle = databases["memory"].query(
            query, strategy="basic").serialize()
        for backend, db in databases.items():
            for kernel in KERNELS_UNDER_TEST:
                for executor in EXECUTORS_UNDER_TEST:
                    got = db.query(query, strategy="ll", kernel=kernel,
                                   workers=4, shard_min_rows=1,
                                   executor=executor).serialize()
                    assert got == oracle, (seed, op, backend, kernel,
                                           executor)


@pytest.mark.parametrize("seed", range(10600, 10603))
def test_fuzz_reopened_store(tmp_path, seed):
    """A saved store holds columns only; the DOM an opened store builds
    from them must be the saved one again (content, numbering, text),
    and both the DOM walk and the kernels over the mapped columns must
    answer like the in-memory oracle."""
    from repro import storage
    from repro.xmldb.shred import fragment_fingerprint

    rng = random.Random(seed)
    db = Database()
    db.add_document("f.xml", random_xml(rng, max_nodes=60))
    reopened = storage.open_store(
        storage.save_store(str(tmp_path / "f.repro"), db))
    want = db.document("f.xml").document
    got = reopened.document("f.xml").document
    assert fragment_fingerprint(got.all_nodes()) == \
        fragment_fingerprint(want.all_nodes()), seed
    assert got.serialize() == want.serialize(), seed
    assert [(n.pre, n.size, n.level) for n in got.all_nodes()] == \
        [(n.pre, n.size, n.level) for n in want.all_nodes()], seed
    for _ in range(4):
        query = random_query(rng)
        oracle = outcome(db, query, strategy="basic")
        assert outcome(reopened, query, strategy="basic") == oracle, \
            (seed, query)
        for kernel in KERNELS_UNDER_TEST:
            for workers in WORKERS_UNDER_TEST:
                got = outcome(reopened, query, strategy="ll",
                              kernel=kernel, workers=workers,
                              shard_min_rows=1)
                assert got == oracle, (seed, query, kernel, workers)


def test_serial_byte_identical_to_unsharded_columnar():
    """workers='serial' must leave the columnar pipeline untouched:
    the exact arrays, not just equal decodes."""
    import numpy as np

    from repro.staircase import staircase_join, vec_staircase_join
    from repro.xmldb import parse_document, shred

    rng = random.Random(4242)
    doc = parse_document(random_xml(rng))
    sh = shred(doc)
    context = [(it, pre) for it, pre in
               enumerate(range(0, len(sh), 3))]
    for axis in ("descendant", "ancestor", "child", "following",
                 "preceding", "following-sibling", "preceding-sibling"):
        direct = vec_staircase_join(axis, sh, context)
        via_serial = staircase_join(axis, sh, context,
                                    kernel="vectorized",
                                    workers=WORKERS_SERIAL)
        for mine, theirs in zip(
                (direct.iters, direct.offsets, direct.values),
                (via_serial.iters, via_serial.offsets,
                 via_serial.values)):
            assert np.array_equal(mine, theirs), axis
