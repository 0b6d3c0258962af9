"""AST → AST normalisation between parse and loop-lifted evaluation.

The parser expands the abbreviation ``//t`` literally, as
``descendant-or-self::node()/child::t``.  Evaluated as written, the
first step materialises every node of the document only for the second
to throw nearly all of them away; the paper's execution model (§4.1)
answers the pair with *one* Staircase Join over ``pre|size|level``.
:func:`rewrite` restores that: it replaces the pair by a single
``descendant::t`` step wherever that is provably the same query.

The rewrite is pure — it builds new nodes and shares the unchanged
subtrees, never mutating the parse (the plan cache hands the same parse
to every strategy) — and only the ``ll`` strategy runs its output:
``basic`` and ``udf`` evaluate the module as parsed, so the
differential oracle still sees a wrong rewrite.

Two static classifiers of predicates live here too, so that
``Database.explain`` and the evaluator read one verdict:
:func:`position_free` (a per-item test, safe to fuse and to run after
the join) and the narrower :func:`column_predicate` (an attribute
compare against a literal, decided on the attribute columns without
decoding a node — a relational selection on the shredded attribute
rows, §4.3).
"""

from __future__ import annotations

import dataclasses

from repro.xquery import ast

#: Operators whose value is a boolean (or, for a value comparison, the
#: empty sequence) whatever the operands.
_BOOLEAN_OPS = frozenset({
    "=", "!=", "<", "<=", ">", ">=",
    "eq", "ne", "lt", "le", "gt", "ge",
    "and", "or",
})

#: Builtins whose value is a boolean for every argument, by arity.
_BOOLEAN_BUILTINS = frozenset({
    ("not", 1), ("boolean", 1), ("exists", 1), ("empty", 1),
    ("true", 0), ("false", 0),
    ("contains", 2), ("starts-with", 2), ("ends-with", 2),
})

_FOCUS_BUILTINS = frozenset({"position", "last"})


def _reads_focus_position(expr) -> bool:
    return any(isinstance(node, ast.FunctionCall) and not node.args
               and node.name.rpartition(":")[2] in _FOCUS_BUILTINS
               for node in ast.walk(expr))


def _never_numeric(expr) -> bool:
    if isinstance(expr, ast.BinaryOp):
        return expr.op in _BOOLEAN_OPS
    if isinstance(expr, ast.AxisStep):
        return True
    if isinstance(expr, ast.PathExpr):
        return bool(expr.steps) and all(isinstance(step, ast.AxisStep)
                                        for step in expr.steps)
    if isinstance(expr, ast.FunctionCall):
        key = (expr.name.rpartition(":")[2], len(expr.args))
        return key in _BOOLEAN_BUILTINS
    return False


def position_free(predicate: ast.Expr) -> bool:
    """True when *predicate* is provably a per-item test.

    A predicate filters by position in two ways: its value is a number
    (``[3]`` keeps the third item) or it reads the focus position or
    size (``position()``, ``last()``).  This classifier is conservative:
    it answers True only for shapes whose value can never be numeric — a
    comparison, ``and``/``or``, a path of axis steps, a call to a
    builtin that always returns a boolean — and that contain no
    ``position()``/``last()`` call at any depth.  Everything else (a
    literal, arithmetic, a variable, an unknown function, a
    filter-expression step) is "not free", whatever it would evaluate
    to.  A position-free predicate keeps or drops an item regardless of
    which other items it is grouped with, which is what lets a step
    carrying it be fused or run kernel-first (:mod:`repro.xquery.bulk`).

    Assumes the builtin names mean the builtins: :func:`rewrite` leaves
    a module that declares functions of its own untouched.
    """
    return _never_numeric(predicate) \
        and not _reads_focus_position(predicate)


#: ``L op @a`` is ``@a op' L``.
_FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: Value comparisons as the general operator they apply to one item.
_VALUE_AS_GENERAL = {"eq": "=", "ne": "!=", "lt": "<", "le": "<=",
                     "gt": ">", "ge": ">="}

#: Integer literals up to this magnitude are exact as float64, so a
#: float64 compare against them agrees with Python's exact int/float one.
_EXACT_INT = 2 ** 53


def _attribute_name(expr) -> str | None:
    """The local name ``@a`` (or ``@p:a``) tests, for a bare attribute
    step with a plain name test."""
    if isinstance(expr, ast.AxisStep) and expr.axis == "attribute" \
            and expr.test.kind == "name" and "*" not in expr.test.name \
            and not expr.predicates:
        return expr.test.name.rpartition(":")[2]
    return None


def _literal(expr):
    """A string literal's value, or a numeric literal's with its signs
    folded; None for anything else (a signed string casts to a number
    at run time, so it is not a literal here)."""
    sign, signed = 1, False
    while isinstance(expr, ast.UnaryOp):
        sign, signed = (-sign if expr.op == "-" else sign), True
        expr = expr.operand
    if not isinstance(expr, ast.Literal):
        return None
    value = expr.value
    if isinstance(value, str):
        return None if signed else value
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or (isinstance(value, int) and abs(value) > _EXACT_INT):
        return None
    return sign * value


def column_predicate(predicate: ast.Expr):
    """The predicate as a *column term*, or None when it is not one.

    A column term is decided per candidate on the candidate's own
    attribute rows alone, with no DOM node and no interpreter:

    * ``("exists", a)`` — ``[@a]``;
    * ``("compare", a, op, literal, single)`` — ``[@a op L]`` or
      ``[L op @a]`` for a general or value comparison against a string
      or numeric literal, normalised to the attribute on the left and
      the general operator ``op``; ``single`` marks a value comparison,
      which raises where a candidate has two matching attributes;
    * ``("not", t)``, ``("and", t, u)``, ``("or", t, u)``.

    ``a`` is the local name the attribute test matches by.  Every
    column term is position-free.  Variables, sequences, arithmetic,
    ``@*``, child-element operands and function calls other than
    ``not`` are not column terms.  Like :func:`position_free`, this
    assumes ``not`` means the builtin.
    """
    if isinstance(predicate, ast.BinaryOp):
        op = predicate.op
        if op in ("and", "or"):
            left = column_predicate(predicate.left)
            right = column_predicate(predicate.right)
            if left is None or right is None:
                return None
            return (op, left, right)
        general = _VALUE_AS_GENERAL.get(op, op)
        if general not in _FLIPPED:
            return None
        name, literal = _attribute_name(predicate.left), \
            _literal(predicate.right)
        if name is None or literal is None:
            name, literal = _attribute_name(predicate.right), \
                _literal(predicate.left)
            general = _FLIPPED[general]
        if name is None or literal is None:
            return None
        return ("compare", name, general, literal, op in _VALUE_AS_GENERAL)
    if isinstance(predicate, ast.FunctionCall) \
            and predicate.name.rpartition(":")[2] == "not" \
            and len(predicate.args) == 1:
        inner = column_predicate(predicate.args[0])
        return None if inner is None else ("not", inner)
    name = _attribute_name(predicate)
    return None if name is None else ("exists", name)


def column_predicates(predicates: list):
    """The column terms of a non-empty predicate chain, or None unless
    every predicate is one."""
    terms = [column_predicate(p) for p in predicates]
    if not terms or any(term is None for term in terms):
        return None
    return terms


def _is_all_nodes_step(step) -> bool:
    return (isinstance(step, ast.AxisStep)
            and step.axis == "descendant-or-self"
            and step.test.kind == "node"
            and not step.predicates)


def _fuse(steps: list) -> list:
    """``descendant-or-self::node()/child::T[p…]`` and
    ``…/descendant::T[p…]`` → ``descendant::T[p…]`` when every ``p`` is
    position-free.  Every ``T`` below the context node is the child of
    exactly one node of the first step's result, so the two spell the
    same node set; only a predicate that counts positions among
    siblings (``//t[1]``) can tell them apart.  Returns *steps* itself
    when nothing fuses."""
    out = []
    i = 0
    while i < len(steps):
        step = steps[i]
        nxt = steps[i + 1] if i + 1 < len(steps) else None
        if _is_all_nodes_step(step) and isinstance(nxt, ast.AxisStep) \
                and nxt.axis in ("child", "descendant") \
                and all(position_free(p) for p in nxt.predicates):
            out.append(ast.AxisStep("descendant", nxt.test, nxt.predicates,
                                    pos=nxt.pos, fused=True))
            i += 2
        else:
            out.append(step)
            i += 1
    return steps if len(out) == len(steps) else out


def _rewrite(node):
    """Rebuild *node* bottom-up; unchanged subtrees are returned as
    they are, so an untouched module comes back identical (``is``)."""
    if isinstance(node, list):
        items = [_rewrite(item) for item in node]
        if all(new is old for new, old in zip(items, node)):
            return node
        return items
    if not dataclasses.is_dataclass(node):
        return node
    changes = {}
    for field in dataclasses.fields(node):
        old = getattr(node, field.name)
        new = _rewrite(old)
        if isinstance(node, ast.PathExpr) and field.name == "steps":
            new = _fuse(new)
        if new is not old:
            changes[field.name] = new
    return dataclasses.replace(node, **changes) if changes else node


def rewrite(module: ast.Module) -> ast.Module:
    """The module ``ll`` evaluates: *module* with every fusable
    ``//``-pair, at any depth (prolog variables, FLWOR clauses,
    predicates, constructor content, function arguments), replaced by
    one ``descendant`` step.  ``//t[1]``, ``//t[last()]``, ``//t[$n]``,
    ``//@a`` and ``//self::t`` stay as written."""
    if module.prolog.functions:
        # A declared function may shadow a builtin name position_free
        # trusts, and ll refuses such a module anyway.
        return module
    return _rewrite(module)
