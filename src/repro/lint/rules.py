"""The rule set: one checker per project invariant (RL001–RL008).

Each checker receives a :class:`repro.lint.FileContext` and returns raw
findings; suppression filtering happens in the framework.  Rules are
deliberately syntactic — they check the *idiom* that makes the invariant
auditable (an ``astype`` chain, a ``freeze()`` call in the same function,
a ``with self._build_lock:`` ancestor), not a whole-program proof.  Where
the idiom legitimately cannot hold, the fix is a reasoned suppression.
"""

from __future__ import annotations

import ast

from repro.lint import FileContext, Finding, rule

# ---------------------------------------------------------------------------
# shared helpers

#: numpy constructors that take a platform-default dtype when none is
#: given, mapped to the positional index of their ``dtype`` parameter.
_NUMPY_CTORS = {
    "array": 1, "asarray": 1, "zeros": 1, "empty": 1, "ones": 1,
    "frombuffer": 1, "fromfile": 1, "fromstring": 1, "memmap": 1,
    "full": 2, "arange": 3, "fromiter": 1,
}

_NUMPY_NAMES = {"np", "numpy"}


def _numpy_ctor(call: ast.Call) -> str | None:
    """The constructor name if *call* is ``np.<ctor>(...)``."""
    func = call.func
    if (isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in _NUMPY_NAMES
            and func.attr in _NUMPY_CTORS):
        return func.attr
    return None


def _dtype_pinned(call: ast.Call, ctor: str) -> bool:
    if any(kw.arg == "dtype" for kw in call.keywords):
        return True
    slot = _NUMPY_CTORS[ctor]
    if ctor == "arange":
        # dtype is only reachable positionally in the 4-arg form
        # ``arange(start, stop, step, dtype)``.
        return len(call.args) >= 4
    if ctor == "fromiter":
        # dtype is the (required) second parameter.
        return len(call.args) >= 2
    return len(call.args) > slot


def _astype_receivers(tree: ast.AST) -> set[int]:
    """ids of Call nodes that are immediately ``.astype(...)``-chained —
    their own dtype is irrelevant, the chain pins it."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
                and isinstance(node.func.value, ast.Call)):
            out.add(id(node.func.value))
    return out


def _call_name(call: ast.Call) -> str:
    """Trailing name of the called function (``a.b.c()`` -> ``c``)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _walk_function(func: ast.AST):
    """Walk a function body without descending into nested defs (the
    module pseudo-function skips all defs: their bodies get their own
    pass)."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ClassDef):
            # class bodies at module level: statements run at import
            # time but methods are separate functions.
            stack.extend(child for child in ast.iter_child_nodes(node)
                         if not isinstance(child, (ast.FunctionDef,
                                                   ast.AsyncFunctionDef)))


# ---------------------------------------------------------------------------
# RL001 — numpy constructors must pin a dtype


@rule("RL001", "numpy array constructors in kernel/storage code must pin "
               "an explicit dtype (no platform-default ints)")
def rl001(ctx: FileContext) -> list[Finding]:
    if not ctx.in_scope(ctx.config.dtype_scope):
        return []
    findings = []
    exempt = _astype_receivers(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        ctor = _numpy_ctor(node)
        if ctor is None or id(node) in exempt:
            continue
        if not _dtype_pinned(node, ctor):
            findings.append(ctx.finding(
                node, "RL001",
                f"np.{ctor}(...) without an explicit dtype — pin one "
                f"(platform-default ints broke the PR 8 storage format)"))
    return findings


# ---------------------------------------------------------------------------
# RL002 — shared columns must be frozen (writeable=False)


def _frozen_exprs(func: ast.AST) -> set[str]:
    """Expressions frozen in *func*: args of ``freeze(...)`` calls and
    targets of ``X.flags.writeable = False`` assignments."""
    frozen: set[str] = set()
    for node in _walk_function(func):
        if isinstance(node, ast.Call) and _call_name(node) == "freeze":
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    arg = arg.value
                frozen.add(ast.unparse(arg))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr == "writeable"
                        and isinstance(target.value, ast.Attribute)
                        and target.value.attr == "flags"):
                    frozen.add(ast.unparse(target.value.value))
    return frozen


def _readonly_memmap(call: ast.Call) -> bool:
    return (_numpy_ctor(call) == "memmap"
            and any(kw.arg == "mode"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value in ("r", "c")
                    for kw in call.keywords))


@rule("RL002", "arrays assigned to shredded/region/store columns must be "
               "frozen (writeable=False) before sharing")
def rl002(ctx: FileContext) -> list[Finding]:
    if not ctx.in_scope(ctx.config.dtype_scope):
        return []
    columns = set(ctx.config.column_names)
    findings = []
    for func in ctx.functions():
        frozen = _frozen_exprs(func)
        for node in _walk_function(func):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr in columns):
                continue
            value = node.value
            call = value
            if (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "astype"
                    and isinstance(call.func.value, ast.Call)):
                call = call.func.value
            if not (isinstance(call, ast.Call)
                    and _numpy_ctor(call) is not None):
                continue
            if _readonly_memmap(call):
                continue
            if ast.unparse(target) not in frozen:
                findings.append(ctx.finding(
                    node, "RL002",
                    f"column self.{target.attr} is built from a numpy "
                    f"constructor but never frozen in this function — "
                    f"freeze(...) it or set .flags.writeable = False"))
    return findings


# ---------------------------------------------------------------------------
# RL003 — no bare id() cache keys without a paired strong reference


def _id_call_source(node: ast.AST) -> str | None:
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "id" and len(node.args) == 1
            and not node.keywords):
        return ast.unparse(node.args[0])
    return None


def _subexpr_sources(value: ast.AST) -> set[str]:
    return {ast.unparse(sub) for sub in ast.walk(value)
            if isinstance(sub, (ast.Name, ast.Attribute, ast.Subscript))}


@rule("RL003", "dict/cache stores keyed on bare id(obj) must pair a strong "
               "reference to obj (recycled addresses alias dead objects)")
def rl003(ctx: FileContext) -> list[Finding]:
    findings = []
    for func in ctx.functions():
        # Pass 1: variables bound to a bare id() call anywhere in the
        # function (the walk order is not source order, so the binding
        # must be known before the stores are examined).
        id_vars: dict[str, str] = {}
        for node in _walk_function(func):
            if isinstance(node, ast.Assign):
                source = _id_call_source(node.value)
                if (source is not None and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)):
                    id_vars[node.targets[0].id] = source
        # Pass 2: id()-keyed stores, and which sources get pinned.
        # (node, source expr, value expr or None)
        stores: list[tuple[ast.AST, str, ast.AST | None]] = []
        paired: set[str] = set()
        for node in _walk_function(func):
            if isinstance(node, ast.Assign) \
                    and _id_call_source(node.value) is not None \
                    and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                continue
            key_expr: ast.AST | None = None
            store_value: ast.AST | None = None
            where: ast.AST | None = None
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        key_expr = target.slice
                        store_value = node.value
                        where = node
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "setdefault" and node.args):
                key_expr = node.args[0]
                store_value = node.args[1] if len(node.args) > 1 else None
                where = node
            if key_expr is None or where is None:
                continue
            source = _id_call_source(key_expr)
            if source is None and isinstance(key_expr, ast.Name):
                source = id_vars.get(key_expr.id)
            if source is None:
                continue
            stores.append((where, source, store_value))
            if store_value is not None and \
                    source in _subexpr_sources(store_value):
                paired.add(source)
        for where, source, _value in stores:
            if source not in paired:
                findings.append(ctx.finding(
                    where, "RL003",
                    f"store keyed on id({source}) with no store pairing a "
                    f"strong reference to {source} in this function — use "
                    f"the (obj, value) entry scheme (PR 7 alias bug)"))
    return findings


# ---------------------------------------------------------------------------
# RL004 — lazy-build attributes only assigned under the build lock


@rule("RL004", "lazy-build attribute stores must happen inside "
               "`with self._build_lock:` (double-checked build pattern)")
def rl004(ctx: FileContext) -> list[Finding]:
    if not ctx.module_listed(ctx.config.lazy_modules):
        return []
    lazy_attrs = set(ctx.config.lazy_attrs)
    lazy_dicts = set(ctx.config.lazy_dicts)
    lock_exprs = {f"self.{name}" for name in ctx.config.build_locks}
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Assign):
            continue
        what: str | None = None
        for target in node.targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr in lazy_attrs):
                what = f"self.{target.attr}"
            elif (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and isinstance(target.value.value, ast.Name)
                    and target.value.value.id == "self"
                    and target.value.attr in lazy_dicts):
                what = f"self.{target.value.attr}[...]"
        if what is None:
            continue
        constructing = False
        locked = False
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.With):
                for item in ancestor.items:
                    if ast.unparse(item.context_expr) in lock_exprs:
                        locked = True
            elif isinstance(ancestor, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                # __init__ and alternate constructors (a classmethod's
                # `self` is an object it is still building) own theirs.
                constructing = ancestor.name == "__init__" or any(
                    ast.unparse(decorator) == "classmethod"
                    for decorator in ancestor.decorator_list)
                break
        if constructing or locked:
            continue
        findings.append(ctx.finding(
            node, "RL004",
            f"lazy-build store to {what} outside `with self._build_lock:` "
            f"— double-checked builds must hold the lock (PR 9 race)"))
    return findings


# ---------------------------------------------------------------------------
# RL005 — SharedMemory(create=True) must unlink on BaseException


def _creates_shm(call: ast.Call) -> bool:
    name = _call_name(call)
    if name != "SharedMemory":
        return False
    return any(kw.arg == "create" and isinstance(kw.value, ast.Constant)
               and kw.value.value is True for kw in call.keywords)


def _handler_unlinks(handler: ast.ExceptHandler) -> bool:
    catches_base = False
    if handler.type is None:
        catches_base = True
    else:
        types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
                 else [handler.type])
        for typ in types:
            if isinstance(typ, ast.Name) and typ.id == "BaseException":
                catches_base = True
    if not catches_base:
        return False
    for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unlink"):
            return True
        if isinstance(node, ast.Call) and \
                _call_name(node).startswith("_unlink"):
            return True
    return False


def _followed_by_guard(ctx: FileContext, node: ast.AST) -> bool:
    """True if the statement holding *node* is immediately followed (in
    its block) by a try whose handler unlinks on BaseException — the
    create-then-guard shape (creation cannot sit inside its own guard:
    there is nothing to unlink until it returns)."""
    stmt: ast.AST = node
    parent = ctx.parent(stmt)
    while parent is not None and not isinstance(stmt, ast.stmt):
        stmt, parent = parent, ctx.parent(parent)
    if parent is None:
        return False
    for block in ("body", "orelse", "finalbody"):
        stmts = getattr(parent, block, None)
        if not isinstance(stmts, list) or stmt not in stmts:
            continue
        index = stmts.index(stmt)
        if index + 1 < len(stmts):
            nxt = stmts[index + 1]
            if isinstance(nxt, ast.Try) and \
                    any(_handler_unlinks(h) for h in nxt.handlers):
                return True
    return False


@rule("RL005", "SharedMemory(create=True) must be enclosed by a handler "
               "that unlinks the segment on BaseException")
def rl005(ctx: FileContext) -> list[Finding]:
    findings = []
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call) and _creates_shm(node)):
            continue
        guarded = _followed_by_guard(ctx, node)
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.Try) and \
                    any(_handler_unlinks(h) for h in ancestor.handlers):
                guarded = True
                break
        if not guarded:
            findings.append(ctx.finding(
                node, "RL005",
                "SharedMemory(create=True) with no enclosing "
                "except-BaseException handler that unlinks the segment — "
                "an async unwind here leaks POSIX shm (PR 9 leak)"))
    return findings


# ---------------------------------------------------------------------------
# RL006 — no broad except in cancellation-visible modules


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True if the handler body contains a bare ``raise``."""
    for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
        if isinstance(node, ast.Raise) and node.exc is None:
            return True
    return False


@rule("RL006", "no `except Exception` / bare `except:` in modules that see "
               "BenchmarkTimeout/CancelToken unwinds")
def rl006(ctx: FileContext) -> list[Finding]:
    if not ctx.module_listed(ctx.config.cancel_safe_modules):
        return []
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        types = ([] if node.type is None else
                 node.type.elts if isinstance(node.type, ast.Tuple)
                 else [node.type])
        names = {t.id for t in types if isinstance(t, ast.Name)}
        # `except Exception` swallows a QueryCancelled unwind no matter
        # what the handler does with it.  A bare except / BaseException
        # catch is how *deliberate* unwind-time cleanup is written, so
        # it passes iff it visibly re-raises.
        broad_swallow = "Exception" in names
        broad_cleanup = (node.type is None or "BaseException" in names) \
            and not _reraises(node)
        if broad_swallow or broad_cleanup:
            findings.append(ctx.finding(
                node, "RL006",
                "broad except in a cancellation-visible module can "
                "misreport a BenchmarkTimeout/cancellation unwind — catch "
                "the concrete error types (or re-raise BaseException)"))
    return findings


# ---------------------------------------------------------------------------
# RL007 — unbounded loops must poll the cancel token


def _is_while_true(node: ast.While) -> bool:
    test = node.test
    return isinstance(test, ast.Constant) and bool(test.value)


def _polls(body_nodes, poll_names: set[str]) -> bool:
    for node in body_nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and _call_name(sub) in poll_names:
                return True
    return False


@rule("RL007", "unbounded loops in evaluator/shard-wait paths must poll "
               "the CancelToken")
def rl007(ctx: FileContext) -> list[Finding]:
    if not ctx.module_listed(ctx.config.poll_modules):
        return []
    poll_names = set(ctx.config.poll_calls)
    findings = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.While) and _is_while_true(node):
            if not _polls(node.body, poll_names):
                findings.append(ctx.finding(
                    node, "RL007",
                    "unbounded `while True:` without a cancel poll — a "
                    "cancelled query would spin here forever"))
        elif (isinstance(node, (ast.For, ast.AsyncFor))
              and isinstance(node.iter, ast.Call)
              and _call_name(node.iter) == "as_completed"):
            if not _polls(node.body, poll_names):
                findings.append(ctx.finding(
                    node, "RL007",
                    "shard-wait loop over as_completed(...) without a "
                    "cancel poll — use wait_cancellable or poll the token"))
    must_poll = set(ctx.config.must_poll_functions)
    if must_poll:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name in must_poll:
                if not _polls(node.body, poll_names):
                    findings.append(ctx.finding(
                        node, "RL007",
                        f"{node.name} is a configured must-poll function "
                        f"but contains no cancel poll"))
    return findings


# ---------------------------------------------------------------------------
# RL008 — kernel registrations use the canonical axis vocabulary


def _literal_axes(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub


@rule("RL008", "kernel registrations must declare axes from "
               "config.STAIRCASE_AXIS_NAMES")
def rl008(ctx: FileContext) -> list[Finding]:
    allowed = set(ctx.config.axis_names)
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        checks: list[ast.AST] = []
        if name == "KernelSpec":
            checks.extend(kw.value for kw in node.keywords
                          if kw.arg == "axes")
        elif name == "validate_axis" and len(node.args) >= 2:
            checks.append(node.args[1])
        for check in checks:
            for literal in _literal_axes(check):
                if literal.value not in allowed:
                    findings.append(ctx.finding(
                        literal, "RL008",
                        f"axis {literal.value!r} is not in "
                        f"STAIRCASE_AXIS_NAMES — kernel axis declarations "
                        f"must use the canonical vocabulary"))
    return findings
