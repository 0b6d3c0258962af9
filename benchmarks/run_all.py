#!/usr/bin/env python
"""Trajectory runner: time every row of the scenario table into one JSON.

Walks :data:`scenarios.FAMILIES`, times each row with
:func:`repro.bench.harness.median_runtime` (median of 3 repeats under a
120 s DNF budget; ``--smoke``: one repeat of each family's smoke size
under 30 s) and writes a ``repro-bench-trajectory/1`` file::

    PYTHONPATH=src python benchmarks/run_all.py --out BENCH_PR<k>.json
    PYTHONPATH=src python benchmarks/run_all.py --smoke --out /tmp/s.json
    PYTHONPATH=src python benchmarks/run_all.py --only staircase --out ...

Each record carries ``scenario`` (dotted name), ``kernel`` (``ll-list``
| ``ll-heap`` | ``ll-dict`` | ``dom-walk`` | ``vectorized`` | ``null``
for rows that run no join kernel; older committed records also carry
``auto``), ``n`` (workload size), ``seconds`` (median wall time;
``null`` + ``dnf: true`` on budget overrun), ``repeats`` and the row's
extra fields.  The header records
``nproc``, the CPUs the process may use.

**Gates.**  A full run labelled ``PR<k>`` (from the ``--out`` stem) is
diffed against the highest-numbered committed ``BENCH_PR<j>.json``,
``j < k`` (``--baseline PATH`` overrides, ``--baseline none``
disables).  A baseline ``scenario``/``kernel`` key missing from the new
file fails the run when its family is still in the table and its
kernel label is one the table still produces (keys of retired families
or kernels are counted, not failed), and so does a key that DNFs in
the new file but finished in the baseline.  A full run also fails when a
required family is absent or all-DNF: by default every family of the
table (``--require PREFIX`` overrides, ``--require none`` disables).
``--compare PATH`` runs nothing and applies both gates to a committed
file — the CI replay::

    python benchmarks/run_all.py --compare BENCH_PR27.json \\
        --baseline BENCH_PR14.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent
for path in (str(_ROOT / "src"), str(_HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np                                        # noqa: E402

from repro.bench.harness import median_runtime            # noqa: E402
from scenarios import FAMILIES, KERNEL_LABELS             # noqa: E402

SCHEMA = "repro-bench-trajectory/1"
#: (repeats, DNF budget seconds) of a smoke and of a full run.
SMOKE_TIMING = (1, 30.0)
FULL_TIMING = (3, 120.0)


def families_for(only: str | None):
    """The families whose scenarios can contain *only*: those it names
    (``staircase`` names three), or every family when it names none
    (``scale16`` or ``narrow`` may occur in any)."""
    if only is None:
        return FAMILIES
    named = [f for f in FAMILIES
             if only in f.name + "." or only.startswith(f.name + ".")]
    return named or FAMILIES


def run(smoke: bool, only: str | None, label: str) -> dict:
    """Time every wanted row of the table; returns the trajectory."""
    repeats, budget = SMOKE_TIMING if smoke else FULL_TIMING
    print(f"run_all: smoke={smoke} repeats={repeats} budget={budget}s",
          flush=True)
    records = []
    for family in families_for(only):
        for size in family.sizes(smoke):
            for row in family.at(size):
                if only is not None and only not in row.scenario:
                    continue
                seconds = median_runtime(row.fn, budget, repeats)
                dnf = math.isinf(seconds)
                records.append({
                    "scenario": row.scenario, "kernel": row.kernel,
                    "n": int(row.n),
                    "seconds": None if dnf else round(seconds, 6),
                    "repeats": repeats, "dnf": dnf, **row.extra,
                })
                shown = "DNF" if dnf else f"{seconds * 1e3:10.3f}ms"
                name = f"{row.scenario}[{row.kernel}]" if row.kernel \
                    else row.scenario
                print(f"  {name:58s} {shown}", flush=True)
    return {
        "schema": SCHEMA, "pr": label, "smoke": smoke,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "repeats": repeats, "budget_seconds": budget,
        "scenarios": records,
    }


# ----------------------------------------------------------------------
# trajectory gates
# ----------------------------------------------------------------------

def missing_required_families(payload: dict,
                              prefixes: tuple[str, ...]) -> list[str]:
    """Hard failures for required scenario families absent (or entirely
    DNF) in a trajectory file — the gate that fails a run without e.g.
    the ``staircase_axes.*`` keys even against an older baseline."""
    problems: list[str] = []
    for prefix in prefixes:
        hits = [s for s in payload["scenarios"]
                if s["scenario"].startswith(prefix)]
        if not hits:
            problems.append(
                f"required scenario family missing: {prefix}*")
        elif all(s["dnf"] for s in hits):
            problems.append(
                f"required scenario family is all-DNF: {prefix}*")
    return problems


def compare_trajectories(new_payload: dict, baseline_payload: dict
                         ) -> tuple[list[str], list[str]]:
    """Diff two trajectory files on their ``scenario``/``kernel`` keys.

    :returns: ``(problems, report)`` — *problems* are hard failures (a
        baseline key of a table family and kernel label missing from
        the new run, or a key that DNFed in the new run but finished in
        the baseline);
        *report* lines summarize per-key speedups/regressions for
        shared keys.
    """
    def by_key(payload):
        return {(s["scenario"], s["kernel"]): s
                for s in payload["scenarios"]}

    base = by_key(baseline_payload)
    new = by_key(new_payload)
    problems: list[str] = []
    report: list[str] = []
    if new_payload.get("smoke") != baseline_payload.get("smoke"):
        problems.append(
            "smoke/full mismatch: comparing a "
            f"smoke={new_payload.get('smoke')} run against a "
            f"smoke={baseline_payload.get('smoke')} baseline "
            "(workload scales differ; keys would not line up)")
        return problems, report
    table = {family.name for family in FAMILIES}
    retired = 0
    for key in sorted(base.keys() - new.keys(),
                      key=lambda k: (k[0], str(k[1]))):
        if key[0].partition(".")[0] in table and key[1] in KERNEL_LABELS:
            problems.append(f"missing scenario: {key[0]} [{key[1]}]")
        else:
            retired += 1
    regressions = improvements = 0
    for key in sorted(new.keys(), key=lambda k: (k[0], str(k[1]))):
        record = new[key]
        ref = base.get(key)
        if record["dnf"]:
            if ref is None:
                problems.append(
                    f"new DNF: {key[0]} [{key[1]}] (no baseline entry)")
            elif not ref["dnf"]:
                problems.append(
                    f"new DNF: {key[0]} [{key[1]}] "
                    f"(baseline finished in {ref['seconds']}s)")
            continue
        if ref is None or ref["dnf"] or not ref.get("seconds"):
            continue
        ratio = ref["seconds"] / record["seconds"] \
            if record["seconds"] else math.inf
        if ratio >= 1.05:
            improvements += 1
            tag = f"{ratio:.2f}x faster"
        elif ratio <= 0.8:
            regressions += 1
            tag = f"{1 / ratio:.2f}x SLOWER"
        else:
            continue
        report.append(f"  {key[0]} [{key[1]}]: "
                      f"{ref['seconds']}s -> {record['seconds']}s "
                      f"({tag})")
    report.append(f"compared {len(new.keys() & base.keys())} shared "
                  f"keys: {improvements} faster (>=1.05x), "
                  f"{regressions} slower (>=1.25x), "
                  f"{len(new.keys() - base.keys())} new, "
                  f"{retired} of retired families or kernels ignored")
    return problems, report


def resolve_baseline(arg: str | None, pr_label: str, smoke: bool
                     ) -> Path | None:
    """The baseline file to diff against, or ``None``.

    Explicit ``--baseline PATH`` wins (``none`` disables); otherwise a
    full run labelled ``PR<k>`` auto-detects the highest-numbered
    committed ``BENCH_PR<j>.json`` (``j < k``) at the repository root —
    trajectory points need not be consecutive.
    """
    if arg is not None:
        if arg.lower() == "none":
            return None
        return Path(arg)
    if smoke:
        return None
    match = re.fullmatch(r"PR(\d+)", pr_label)
    if match:
        for j in range(int(match.group(1)) - 1, 0, -1):
            candidate = _ROOT / f"BENCH_PR{j}.json"
            if candidate.exists():
                return candidate
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/run_all.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true",
                        help="each family at its smoke size, one repeat "
                             "(the CI harness check)")
    parser.add_argument("--only", default=None, metavar="SUBSTR",
                        help="run only scenarios whose name contains "
                             "this substring")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output JSON path, required unless "
                             "--compare is given; a BENCH_PR<k>.json "
                             "stem labels the trajectory point PR<k>")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="trajectory file to diff against (fails on "
                             "missing scenario/kernel keys or new DNFs; "
                             "default: the latest committed "
                             "BENCH_PR<j>.json before a PR<k> run; "
                             "'none' disables)")
    parser.add_argument("--compare", default=None, metavar="PATH",
                        help="skip running: load this trajectory JSON "
                             "and only apply the gates")
    parser.add_argument("--require", action="append", default=None,
                        metavar="PREFIX",
                        help="scenario-name prefix that must be present "
                             "(and not all-DNF) in the trajectory file; "
                             "repeatable (default: every family of the "
                             "table; 'none' disables)")
    args = parser.parse_args(argv)
    if args.compare is None and args.out is None:
        parser.error("--out is required unless --compare is given "
                     "(a committed BENCH_PR<k>.json is never a default)")

    if args.require is None:
        required = tuple(f"{family.name}." for family in FAMILIES)
    else:
        required = tuple(p for p in args.require if p.lower() != "none")

    if args.compare is not None:
        source = Path(args.compare)
        if not source.exists():
            print(f"trajectory file {source} does not exist")
            return 1
        payload = json.loads(source.read_text(encoding="utf-8"))
        pr_label = payload.get("pr", source.stem)
        smoke = bool(payload.get("smoke"))
        print(f"run_all: comparing {source} (no scenarios executed)")
    else:
        out = Path(args.out)
        pr_label = out.stem.removeprefix("BENCH_")
        smoke = args.smoke
        payload = run(smoke, args.only, pr_label)
        out.write_text(json.dumps(payload, indent=2) + "\n",
                       encoding="utf-8")
        print(f"\nwrote {len(payload['scenarios'])} scenario records "
              f"to {out}")

    gate_problems: list[str] = []
    gate_ran = required and not smoke \
        and (args.compare is not None or args.only is None)
    if gate_ran:
        gate_problems = missing_required_families(payload, required)

    baseline_path = resolve_baseline(args.baseline, pr_label, smoke)
    if baseline_path is None:
        if gate_problems:
            for problem in gate_problems:
                print(f"FAIL: {problem}")
            return 1
        if args.compare is not None:
            print("no baseline to compare against "
                  "(pass --baseline PATH)")
            return 1
        return 0
    if not baseline_path.exists():
        print(f"baseline {baseline_path} does not exist")
        return 1
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    problems, report = compare_trajectories(payload, baseline)
    problems = gate_problems + problems
    print(f"\ntrajectory diff vs {baseline_path.name} "
          f"({baseline.get('pr', '?')}):")
    for line in report:
        print(line)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    print("trajectory check OK: no missing scenarios, no new DNFs"
          + (", required families present" if gate_ran else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
