"""Render the plan the loop-lifted evaluator runs, for people.

:func:`render_plan` lays a (rewritten) module out as an outline in
which every path takes one line per step, written ``axis::test[p]…``,
and every axis step says how :mod:`repro.xquery.bulk` will run it — the
verdict comes from :func:`repro.xquery.bulk.step_route`, the function
the evaluator itself branches on, so the text cannot drift from the
behaviour.  Expressions that contain no axis step stay on one line.
"""

from __future__ import annotations

from repro.xquery import ast
from repro.xquery.bulk import step_route

#: One note per predicate stage of a join step, by stage kind.
_STAGES = {
    "columns": "column filter",
    "items": "then per-item filter",
    "positions": "position masks",
}


def render_plan(module: ast.Module) -> str:
    lines: list[str] = []
    if module.prolog.functions:
        names = ", ".join(f"{decl.name}#{len(decl.params)}"
                          for decl in module.prolog.functions)
        lines.append(f"(: declares {names}: strategy \"ll\" refuses the "
                     "module; basic and udf evaluate it as parsed :)")
    for decl in module.prolog.variables:
        lines.append(f"declare variable ${decl.name} :=")
        _layout(decl.value, 1, lines)
    _layout(module.body, 0, lines)
    return "\n".join(lines)


def _route(step: ast.AxisStep) -> str:
    route, stages = step_route(step)
    if route == "dom":
        note = "DOM walk"
    else:
        note = ", ".join([
            "StandOff merge join" if step.is_standoff else "Staircase join",
            *("then per-item position filter" if plan is None
              else _STAGES[kind] for kind, plan in stages)])
    if step.fused:
        note = "'//' fused; " + note
    return note


def _has_steps(expr) -> bool:
    return any(isinstance(node, ast.AxisStep) for node in ast.walk(expr))


def _layout(expr, depth: int, out: list[str]) -> None:
    pad = "  " * depth
    if isinstance(expr, ast.AxisStep):
        out.append(f"{pad}{unparse(expr):<40}  (: {_route(expr)} :)")
    elif not _has_steps(expr):
        out.append(pad + unparse(expr))
    elif isinstance(expr, ast.PathExpr):
        if expr.absolute:
            out.append(pad + "root()")
        for step in expr.steps:
            _layout(step, depth, out)
    else:
        opening, parts, closing = _parts(expr)
        if opening:
            out.append(pad + opening)
        inner = depth + bool(opening)
        for label, part in parts:
            if label:
                out.append("  " * inner + label)
            _layout(part, inner + bool(label), out)
        if closing:
            out.append(pad + closing)


def _parts(expr) -> tuple[str, list[tuple[str, object]], str]:
    """``(opening line, [(label, sub-expression)…], closing line)`` of
    an expression that is laid out over several lines."""
    if isinstance(expr, ast.FunctionCall):
        return f"{expr.name}(", [("", arg) for arg in expr.args], ")"
    if isinstance(expr, ast.FilterExpr):
        return "(", [("", expr.base)], ")" + _predicates(expr)
    if isinstance(expr, ast.BinaryOp):
        return "(", [("", expr.left), (expr.op, expr.right)], ")"
    if isinstance(expr, ast.UnaryOp):
        return f"{expr.op}(", [("", expr.operand)], ")"
    if isinstance(expr, ast.RangeExpr):
        return "(", [("", expr.lo), ("to", expr.hi)], ")"
    if isinstance(expr, ast.Sequence):
        return "(", [("", item) for item in expr.items], ")"
    if isinstance(expr, ast.IfExpr):
        return "", [("if", expr.condition), ("then", expr.then),
                    ("else", expr.orelse)], ""
    if isinstance(expr, ast.Quantified):
        return "", [(f"{expr.quantifier} ${expr.var} in", expr.binding),
                    ("satisfies", expr.satisfies)], ""
    if isinstance(expr, ast.FLWOR):
        parts = [(_clause_head(clause),
                  clause.binding if isinstance(clause, ast.ForClause)
                  else clause.value) for clause in expr.clauses]
        if expr.where is not None:
            parts.append(("where", expr.where))
        parts += [("order by" + " descending" * spec.descending, spec.key)
                  for spec in expr.order_by]
        return "", [*parts, ("return", expr.return_expr)], ""
    if isinstance(expr, ast.ElementConstructor):
        parts = [(f"@{attr.name}", part) for attr in expr.attributes
                 for part in attr.parts if not isinstance(part, str)]
        parts += [("", part) for part in expr.content
                  if not isinstance(part, str)]
        return f"<{expr.name}>", parts, f"</{expr.name}>"
    assert isinstance(expr, ast.TextConstructor), type(expr)
    return "text {", [("", part) for part in expr.parts
                      if not isinstance(part, str)], "}"


def _clause_head(clause) -> str:
    if isinstance(clause, ast.LetClause):
        return f"let ${clause.var} :="
    at = f" at ${clause.position_var}" if clause.position_var else ""
    return f"for ${clause.var}{at} in"


def _predicates(step) -> str:
    return "".join(f"[{unparse(p)}]" for p in step.predicates)


def _operand(expr) -> str:
    text = unparse(expr)
    if isinstance(expr, (ast.BinaryOp, ast.UnaryOp, ast.RangeExpr,
                         ast.IfExpr, ast.FLWOR, ast.Quantified)):
        return f"({text})"
    return text


def unparse(expr) -> str:
    """One-line XQuery text of an expression (unabbreviated: the AST
    does not remember ``@`` or ``..``)."""
    if isinstance(expr, str):            # constructor literal text
        return expr
    if isinstance(expr, ast.Literal):
        value = expr.value
        if isinstance(value, str):
            return '"' + value.replace('"', '""') + '"'
        if isinstance(value, bool):
            return "true()" if value else "false()"
        return repr(value)
    if isinstance(expr, ast.EmptySequence):
        return "()"
    if isinstance(expr, ast.VarRef):
        return f"${expr.name}"
    if isinstance(expr, ast.ContextItem):
        return "."
    if isinstance(expr, ast.Sequence):
        return "(" + ", ".join(unparse(item) for item in expr.items) + ")"
    if isinstance(expr, ast.FunctionCall):
        return f"{expr.name}(" \
            + ", ".join(unparse(arg) for arg in expr.args) + ")"
    if isinstance(expr, ast.UnaryOp):
        return expr.op + _operand(expr.operand)
    if isinstance(expr, ast.BinaryOp):
        return f"{_operand(expr.left)} {expr.op} {_operand(expr.right)}"
    if isinstance(expr, ast.RangeExpr):
        return f"{_operand(expr.lo)} to {_operand(expr.hi)}"
    if isinstance(expr, ast.IfExpr):
        return (f"if ({unparse(expr.condition)}) then {unparse(expr.then)} "
                f"else {unparse(expr.orelse)}")
    if isinstance(expr, ast.Quantified):
        return (f"{expr.quantifier} ${expr.var} in {unparse(expr.binding)} "
                f"satisfies {unparse(expr.satisfies)}")
    if isinstance(expr, ast.FLWOR):
        _opening, parts, _closing = _parts(expr)
        return " ".join(f"{label} {unparse(part)}" for label, part in parts)
    if isinstance(expr, ast.AxisStep):
        return f"{expr.axis}::{expr.test}{_predicates(expr)}"
    if isinstance(expr, ast.FilterExpr):
        return _operand(expr.base) + _predicates(expr)
    if isinstance(expr, ast.PathExpr):
        steps = "/".join(unparse(step) for step in expr.steps)
        return "/" + steps if expr.absolute else steps
    if isinstance(expr, ast.ElementConstructor):
        attrs = "".join(
            f' {attr.name}="' + "".join(
                part if isinstance(part, str) else "{" + unparse(part) + "}"
                for part in attr.parts) + '"'
            for attr in expr.attributes)
        content = "".join(
            part if isinstance(part, str)
            else unparse(part) if isinstance(part, ast.ElementConstructor)
            else "{" + unparse(part) + "}"
            for part in expr.content)
        return f"<{expr.name}{attrs}>{content}</{expr.name}>"
    assert isinstance(expr, ast.TextConstructor), type(expr)
    return "text {" + ", ".join(unparse(part) for part in expr.parts) + "}"
