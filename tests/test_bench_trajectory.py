"""The kernel trajectory's gates (``benchmarks/run_all.py``) on
synthetic payloads, and the scenario table's keys (``benchmarks/
scenarios.py``) — no timing."""

import json
import sys
from pathlib import Path

import pytest

from repro.bench.figure6 import build_database

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import run_all  # noqa: E402
import scenarios  # noqa: E402


def _record(scenario, kernel="vectorized", seconds=0.01):
    return {"scenario": scenario, "kernel": kernel, "n": 1,
            "seconds": seconds, "repeats": 1, "dnf": seconds is None}


def _payload(*records, smoke=False):
    return {"schema": run_all.SCHEMA, "smoke": smoke,
            "scenarios": list(records)}


PUSHED = _record("pushdown.pushed.sel0.1", "ll-list")
POSTFILTER = _record("pushdown.postfilter.sel0.1", "ll-list")


def test_missing_key_of_a_table_family_fails():
    problems, _report = run_all.compare_trajectories(
        _payload(PUSHED), _payload(PUSHED, POSTFILTER))
    assert problems == [
        "missing scenario: pushdown.postfilter.sel0.1 [ll-list]"]


def test_key_of_a_retired_family_is_ignored():
    retired = _record("procpool.scale16.0.staircase_following.procs4")
    problems, report = run_all.compare_trajectories(
        _payload(PUSHED), _payload(PUSHED, retired))
    assert problems == []
    assert report[-1].endswith("1 of retired families or kernels ignored")


def test_key_of_a_retired_kernel_is_ignored():
    auto = _record("active_structure.deep", "auto")
    problems, report = run_all.compare_trajectories(
        _payload(PUSHED), _payload(PUSHED, auto))
    assert problems == []
    assert report[-1].endswith("1 of retired families or kernels ignored")


def test_missing_vectorized_key_still_fails():
    vectorized = _record("active_structure.deep")
    problems, _report = run_all.compare_trajectories(
        _payload(PUSHED), _payload(PUSHED, vectorized))
    assert problems == [
        "missing scenario: active_structure.deep [vectorized]"]


def test_new_dnf_fails():
    dnf = _record("pushdown.pushed.sel0.1", "ll-list", seconds=None)
    problems, _report = run_all.compare_trajectories(
        _payload(dnf), _payload(PUSHED))
    assert problems == ["new DNF: pushdown.pushed.sel0.1 [ll-list] "
                        "(baseline finished in 0.01s)"]
    fresh = _record("staircase.scale0.5.select_narrow", seconds=None)
    problems, _report = run_all.compare_trajectories(
        _payload(PUSHED, fresh), _payload(PUSHED))
    assert problems == ["new DNF: staircase.scale0.5.select_narrow "
                        "[vectorized] (no baseline entry)"]


def test_smoke_against_full_fails():
    problems, _report = run_all.compare_trajectories(
        _payload(PUSHED, smoke=True), _payload(PUSHED))
    assert len(problems) == 1
    assert problems[0].startswith("smoke/full mismatch")


@pytest.mark.parametrize("records, problem", [
    ((PUSHED,), "required scenario family missing: staircase.*"),
    ((PUSHED, _record("staircase.scale0.5.select_narrow", seconds=None)),
     "required scenario family is all-DNF: staircase.*"),
])
def test_absent_or_all_dnf_required_family_fails(records, problem):
    assert run_all.missing_required_families(
        _payload(*records), ("pushdown.", "staircase.")) == [problem]


@pytest.fixture(scope="module")
def table_keys():
    """``{smoke: [(scenario, kernel), ...]}`` of the table, every XMark
    scale served by one tiny document: names do not depend on it."""
    tiny = build_database(0.02)
    scenarios.xmark.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios, "build_database", lambda scale: tiny)
        keys = {smoke: [(row.scenario, row.kernel)
                        for family in scenarios.FAMILIES
                        for size in family.sizes(smoke)
                        for row in family.at(size)]
                for smoke in (True, False)}
    scenarios.xmark.cache_clear()
    return keys


def test_table_keys_are_unique(table_keys):
    for keys in table_keys.values():
        assert len(keys) == len(set(keys))
    assert len(table_keys[True]) == 68
    assert len(table_keys[False]) == 108


def test_every_full_key_exists_in_bench_pr14(table_keys):
    committed = json.loads((ROOT / "BENCH_PR14.json").read_text())
    keys = {(s["scenario"], s["kernel"]) for s in committed["scenarios"]}
    assert set(table_keys[False]) <= keys


def test_bare_full_run_is_a_usage_error(capsys):
    committed = ROOT / "BENCH_PR9.json"
    before = committed.read_bytes()
    with pytest.raises(SystemExit) as exit_info:
        run_all.main([])
    assert exit_info.value.code == 2
    assert "--out is required" in capsys.readouterr().err
    assert committed.read_bytes() == before
