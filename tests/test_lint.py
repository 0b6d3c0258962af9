"""The repro.lint static pass: fixture corpus, self-lint, CLI, config.

Two layers.  The fixture corpus under ``tests/lint_fixtures`` exercises
every rule with at least one true positive and one near-miss (linted
with a config whose scope lists point at the fixture directory).  The
self-lint test runs the real configuration over the real tree: the pass
that gates CI must itself report the repo clean.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    LintConfig,
    RULES,
    iter_lint_files,
    lint_file,
    lint_paths,
    load_config,
)

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "lint_fixtures"


def fixture_config(**overrides) -> LintConfig:
    """A config that aims every scoped rule at the fixture corpus."""
    base = dict(
        exclude=(),
        dtype_scope=("tests/lint_fixtures",),
        cancel_safe_modules=("rl006_bad.py", "rl006_ok.py"),
        poll_modules=("rl007_bad.py", "rl007_ok.py"),
        must_poll_functions=("must_poll_fn",),
        lazy_modules=("rl004_bad.py", "rl004_ok.py"),
    )
    base.update(overrides)
    return LintConfig(**base)


def run_fixture(name: str):
    return lint_file(FIXTURES / name, ROOT, fixture_config())


#: (rule id, true-positive fixture, expected findings for that rule,
#:  near-miss fixture that must be clean under *every* rule)
CASES = [
    ("RL000", "rl000_bad.py", 1, "rl000_ok.py"),
    ("RL001", "rl001_bad.py", 3, "rl001_ok.py"),
    ("RL002", "rl002_bad.py", 1, "rl002_ok.py"),
    ("RL003", "rl003_bad.py", 2, "rl003_ok.py"),
    ("RL004", "rl004_bad.py", 2, "rl004_ok.py"),
    ("RL005", "rl005_bad.py", 1, "rl005_ok.py"),
    ("RL006", "rl006_bad.py", 2, "rl006_ok.py"),
    ("RL007", "rl007_bad.py", 3, "rl007_ok.py"),
]


class TestFixtureCorpus:
    @pytest.mark.parametrize("rule_id,bad,count,ok", CASES,
                             ids=[case[0] for case in CASES])
    def test_true_positives_and_near_misses(self, rule_id, bad, count, ok):
        flagged = [f for f in run_fixture(bad) if f.rule == rule_id]
        assert len(flagged) == count, \
            f"{bad}: " + "\n".join(f.render() for f in run_fixture(bad))
        clean = run_fixture(ok)
        assert clean == [], \
            f"{ok}: " + "\n".join(f.render() for f in clean)

    def test_every_rule_has_a_fixture_pair(self):
        covered = {case[0] for case in CASES} - {"RL000"}
        assert covered == set(RULES)

    def test_reasonless_suppression_does_not_suppress(self):
        # rl000_bad's bare `lint-ok[RL001]` must both be reported
        # (RL000) and fail to mask the RL001 finding below it.
        rules = {f.rule for f in run_fixture("rl000_bad.py")}
        assert rules == {"RL000", "RL001"}


class TestSuppressions:
    def test_wildcard_with_reason(self, tmp_path):
        target = tmp_path / "generated.py"
        target.write_text(
            "import numpy as np\n"
            "TABLE = np.zeros(4)  # repro: lint-ok[*] generated table\n")
        config = fixture_config(dtype_scope=(target.as_posix(),))
        assert lint_file(target, ROOT, config) == []

    def test_comment_on_line_above(self, tmp_path):
        target = tmp_path / "above.py"
        target.write_text(
            "import numpy as np\n"
            "# repro: lint-ok[RL001] scratch, caller casts\n"
            "TABLE = np.zeros(4)\n")
        config = fixture_config(dtype_scope=(target.as_posix(),))
        assert lint_file(target, ROOT, config) == []

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        target = tmp_path / "wrong.py"
        target.write_text(
            "import numpy as np\n"
            "TABLE = np.zeros(4)  # repro: lint-ok[RL005] not this rule\n")
        config = fixture_config(dtype_scope=(target.as_posix(),))
        assert [f.rule for f in lint_file(target, ROOT, config)] == ["RL001"]

    def test_syntax_error_reported_as_rl000(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n")
        findings = lint_file(target, ROOT, fixture_config())
        assert [f.rule for f in findings] == ["RL000"]


class TestSelfLint:
    def test_repo_is_lint_clean(self):
        """The gating invariant: the default config over the real tree."""
        config = load_config(ROOT)
        findings = lint_paths(
            [ROOT / "src", ROOT / "tests", ROOT / "benchmarks"],
            ROOT, config)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_pyproject_matches_in_code_defaults(self):
        # The linter also runs without pyproject.toml; both configs must
        # name the same scopes (RL006's cancel-safe modules included).
        config = load_config(ROOT)
        assert config == LintConfig()
        assert "src/repro/xquery/standoff.py" in config.cancel_safe_modules
        assert "src/repro/core/steps.py" in config.cancel_safe_modules

    def test_fixture_corpus_excluded_from_directory_walks(self):
        config = load_config(ROOT)
        walked = iter_lint_files([ROOT / "tests"], ROOT, config)
        assert not any(FIXTURES in path.parents for path in walked)

    def test_explicit_file_overrides_exclusion(self):
        config = load_config(ROOT)
        explicit = iter_lint_files([FIXTURES / "rl001_bad.py"], ROOT, config)
        assert explicit == [FIXTURES / "rl001_bad.py"]


def run_cli(*argv: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


class TestCli:
    def test_clean_file_exits_zero(self):
        proc = run_cli("src/repro/errors.py")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_findings_exit_one(self):
        # RL000 (reasonless suppression) fires regardless of scope, so
        # the default config still flags the fixture when named
        # explicitly.
        proc = run_cli("tests/lint_fixtures/rl000_bad.py")
        assert proc.returncode == 1
        assert "RL000" in proc.stdout
        assert "finding" in proc.stderr

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in sorted(RULES):
            assert rule_id in proc.stdout

    def test_no_paths_is_a_usage_error(self):
        proc = run_cli()
        assert proc.returncode == 2
