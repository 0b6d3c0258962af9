"""repro.lint — the repo-specific invariant-enforcing static-analysis pass.

Every rule here encodes an invariant this codebase has already paid a
bug for (see ``docs/lint.md`` for the catalog and the motivating PRs):
dtype pinning and frozen shared columns (PR 8), identity-verified
``id()`` cache keys (PR 7), double-checked lazy builds and shm-segment
lifecycle (PR 9), cancellation-safe exception handling and poll points
(PR 9).  The pass is AST-based (no imports of the linted code), runs
as ``python -m repro.lint <paths...>`` and gates CI together with the
tier-1 suites.

Suppressions are per-line comments and *must* carry a reason::

    risky_line()   # repro: lint-ok[RL005] worker attaches, owner unlinks

A suppression comment may sit on the offending line or on the line
directly above it; a reasonless suppression is itself reported (as
``RL000``).  File-set and per-rule scoping live in ``pyproject.toml``
under ``[tool.repro-lint]`` — see :class:`LintConfig` for the keys and
their defaults (the defaults match this repo, so the linter also works
without a config file).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

__all__ = [
    "Finding", "FileContext", "LintConfig", "RULES", "rule",
    "lint_file", "lint_paths", "load_config",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str           # display path (relative to the lint root)
    line: int
    col: int
    rule: str           # "RL001".."RL007", or "RL000" (framework)
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


#: ``# repro: lint-ok[RL001] reason`` (ids comma-separated, reason required).
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*lint-ok\[(?P<ids>[A-Za-z0-9_,\s*]+)\]\s*(?P<reason>.*)$")


class Suppressions:
    """Per-line ``lint-ok`` suppression comments for one file."""

    def __init__(self, lines: list[str]):
        self.by_line: dict[int, set[str]] = {}
        self.reasonless: list[int] = []
        for lineno, text in enumerate(lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            ids = {part.strip() for part in match.group("ids").split(",")
                   if part.strip()}
            if not match.group("reason").strip():
                self.reasonless.append(lineno)
                continue
            self.by_line[lineno] = ids

    def allows(self, line: int, rule_id: str) -> bool:
        """True if *rule_id* is suppressed at *line* (same or previous
        line; ``*`` suppresses every rule)."""
        for candidate in (line, line - 1):
            ids = self.by_line.get(candidate)
            if ids is not None and (rule_id in ids or "*" in ids):
                return True
        return False


_DEFAULT_DTYPE_SCOPE = (
    "src/repro/core", "src/repro/staircase", "src/repro/relational",
    "src/repro/exec", "src/repro/storage", "src/repro/xmldb",
)

_DEFAULT_COLUMN_NAMES = (
    "pre", "size", "level", "kind", "parent", "name", "starts", "ends",
    "ids", "iters", "offsets", "values", "heap", "pres", "nids",
)

_DEFAULT_CANCEL_SAFE_MODULES = (
    "src/repro/xquery/lexer.py", "src/repro/xquery/evaluator.py",
    "src/repro/xquery/bulk.py", "src/repro/bench/harness.py",
    "src/repro/exec/cancel.py", "src/repro/exec/sharding.py",
    "src/repro/exec/procpool.py", "src/repro/xquery/standoff.py",
    "src/repro/core/steps.py",
)

_DEFAULT_POLL_MODULES = (
    "src/repro/xquery/evaluator.py", "src/repro/xquery/bulk.py",
    "src/repro/exec/sharding.py", "src/repro/exec/procpool.py",
    "src/repro/exec/cancel.py",
)

_DEFAULT_MUST_POLL = (
    "_eval_flwor", "_filter_by_predicate", "_dom_step",
    "_filter_segments", "fragment_groups", "run_shards",
)

_DEFAULT_POLL_CALLS = (
    "check_cancelled", "raise_if_cancelled", "wait_cancellable",
)

_DEFAULT_LAZY_MODULES = (
    "src/repro/xmldb/store.py", "src/repro/xmldb/shred.py",
    "src/repro/storage/__init__.py",
)
_DEFAULT_LAZY_ATTRS = ("_shredded", "_document", "_backing",
                       "_numbers", "_region_indexes", "_spill_path",
                       "_unspilled", "_nodes")
_DEFAULT_LAZY_DICTS = ("_region_indexes", "_stored", "_attr_columns")
_DEFAULT_BUILD_LOCKS = ("_build_lock", "_stored_lock",
                        "_columns_lock")

@dataclass
class LintConfig:
    """Config for the pass (``[tool.repro-lint]`` in ``pyproject.toml``).

    Path entries are ``/``-separated prefixes relative to the lint root
    (the directory holding ``pyproject.toml``).
    """

    exclude: tuple[str, ...] = ("tests/lint_fixtures",)
    dtype_scope: tuple[str, ...] = _DEFAULT_DTYPE_SCOPE
    column_names: tuple[str, ...] = _DEFAULT_COLUMN_NAMES
    cancel_safe_modules: tuple[str, ...] = _DEFAULT_CANCEL_SAFE_MODULES
    poll_modules: tuple[str, ...] = _DEFAULT_POLL_MODULES
    must_poll_functions: tuple[str, ...] = _DEFAULT_MUST_POLL
    poll_calls: tuple[str, ...] = _DEFAULT_POLL_CALLS
    lazy_modules: tuple[str, ...] = _DEFAULT_LAZY_MODULES
    lazy_attrs: tuple[str, ...] = _DEFAULT_LAZY_ATTRS
    lazy_dicts: tuple[str, ...] = _DEFAULT_LAZY_DICTS
    build_locks: tuple[str, ...] = _DEFAULT_BUILD_LOCKS


def load_config(root: Path) -> LintConfig:
    """Read ``[tool.repro-lint]`` from *root*/pyproject.toml (defaults
    apply for missing keys or a missing file)."""
    config = LintConfig()
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return config
    import tomllib
    with open(pyproject, "rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("repro-lint", {})
    for key, value in table.items():
        attr = key.replace("-", "_")
        if hasattr(config, attr):
            setattr(config, attr, tuple(value))
    return config


class FileContext:
    """Everything a rule needs to check one file."""

    def __init__(self, path: Path, rel: str, source: str,
                 config: LintConfig):
        self.path = path
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        self.config = config
        self.tree = ast.parse(source, filename=str(path))
        self.suppressions = Suppressions(self.lines)
        # id(child) -> (child, parent): the child is pinned in the entry
        # so the id key can never alias a collected node (the RL003
        # scheme — the linter holds itself to its own rules).
        self._parents: dict[int, tuple[ast.AST, ast.AST]] | None = None

    def in_scope(self, prefixes: Iterable[str]) -> bool:
        return any(self.rel == p or self.rel.startswith(p.rstrip("/") + "/")
                   or self.rel.endswith("/" + p) or self.rel == p
                   for p in prefixes)

    def module_listed(self, modules: Iterable[str]) -> bool:
        """True if this file is one of the configured module paths."""
        return any(self.rel == m or self.rel.endswith("/" + m)
                   for m in modules)

    def parent(self, node: ast.AST) -> ast.AST | None:
        if self._parents is None:
            self._parents = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parents[id(child)] = (child, parent)
        entry = self._parents.get(id(node))
        if entry is None or entry[0] is not node:
            return None
        return entry[1]

    def ancestors(self, node: ast.AST):
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def functions(self):
        """All function/method bodies, outermost first, plus the module
        body itself as a pseudo-function."""
        yield self.tree
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def finding(self, node: ast.AST, rule_id: str, message: str) -> Finding:
        return Finding(self.rel, getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0), rule_id, message)


RuleFunc = Callable[[FileContext], list[Finding]]

#: rule id -> (checker, one-line description)
RULES: dict[str, tuple[RuleFunc, str]] = {}


def rule(rule_id: str, description: str):
    def decorate(func: RuleFunc) -> RuleFunc:
        RULES[rule_id] = (func, description)
        return func
    return decorate


def lint_file(path: Path, root: Path, config: LintConfig) -> list[Finding]:
    """Run every rule over one file; suppressed findings are dropped,
    reasonless suppressions are reported."""
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    source = path.read_text(encoding="utf-8")
    try:
        ctx = FileContext(path, rel, source, config)
    except SyntaxError as error:
        return [Finding(rel, error.lineno or 1, error.offset or 0,
                        "RL000", f"file does not parse: {error.msg}")]
    findings: list[Finding] = []
    for rule_id, (checker, _description) in sorted(RULES.items()):
        for found in checker(ctx):
            if not ctx.suppressions.allows(found.line, found.rule):
                findings.append(found)
    for lineno in ctx.suppressions.reasonless:
        findings.append(Finding(
            rel, lineno, 0, "RL000",
            "suppression comment is missing its reason "
            "(# repro: lint-ok[RLnnn] <why this line is safe>)"))
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def _excluded(rel: str, config: LintConfig) -> bool:
    return any(rel == e or rel.startswith(e.rstrip("/") + "/")
               for e in config.exclude)


def iter_lint_files(paths: list[Path], root: Path,
                    config: LintConfig) -> list[Path]:
    """Expand CLI path arguments to the .py files to lint.  Excludes
    apply only during directory walks: a file named explicitly is always
    linted (that is how the fixture tests lint the fixture corpus)."""
    out: list[Path] = []
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            if path.is_dir():
                try:
                    rel = resolved.relative_to(root.resolve()).as_posix()
                except ValueError:
                    rel = candidate.as_posix()
                if _excluded(rel, config):
                    continue
            seen.add(resolved)
            out.append(candidate)
    return out


def lint_paths(paths: list[Path], root: Path,
               config: LintConfig | None = None) -> list[Finding]:
    config = config if config is not None else load_config(root)
    findings: list[Finding] = []
    for path in iter_lint_files(paths, root, config):
        findings.extend(lint_file(path, root, config))
    return findings


# Register the rules (import for side effect of @rule registration).
from repro.lint import rules as _rules  # noqa: E402,F401
