"""End-to-end query benchmark: five workloads against the public API.

One run (what ``BENCHMARK.json``'s command starts)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints one JSON object as its last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  For people::

    python3 benchmarks/e2e/run.py --all [--seed N] [--trace 1]
    python3 benchmarks/e2e/run.py --smoke
    python3 benchmarks/e2e/run.py --repeat 10 --out A.json
    python3 benchmarks/e2e/run.py --check-noise A.json B.json

run every workload in a fresh subprocess each and print
``workload metric value unit`` lines.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: Full set-ups before and again after the timed phase of an untraced
#: run, so that they span it; ``setup_s`` is the quickest of them all.
SETUPS = 2
#: ``--smoke``: XMark scale of every workload, and one cycle each.
SMOKE_SCALE = 0.1
#: Half-width of the rank window of the percentile steadiness check.
RANK_WINDOW = 0.03


def load_workloads():
    """Import the workloads with the program's configuration pinned:
    every ``REPRO_*`` variable is dropped before ``repro`` (and the
    server subprocess, which inherits the environment) reads it."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'} not found: the benchmark "
                 "runs the program from source")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    return workloads.WORKLOADS


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

def percentile(ordered: list[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def rank_window(samples: list, q: float) -> tuple[list[str], float]:
    """Templates of the ops at ranks *q* +- RANK_WINDOW and the window's
    latency width as a share of the percentile.  A percentile is steady
    when the window sits inside one template's cluster or is narrow."""
    ordered = sorted(samples, key=lambda s: s[1])
    n = len(ordered)
    lo = max(0, int((q - RANK_WINDOW) * n))
    hi = min(n - 1, int((q + RANK_WINDOW) * n))
    window = ordered[lo:hi + 1]
    width = (window[-1][1] - window[0][1]) / percentile(
        [s[1] for s in ordered], q)
    return sorted({s[0] for s in window}), width


def latency_geomean(samples: list) -> float:
    by_template: dict[str, list[float]] = {}
    for template, latency, _ok in samples:
        by_template.setdefault(template, []).append(latency)
    return statistics.geometric_mean(
        statistics.median(v) for v in by_template.values())


def quiet(values: list[float], better: str = "lower") -> float:
    """The value an eighth of the way in from the better end of
    *values* (nearest rank, towards the better end; the best of fewer
    than nine).  Outside load on a shared host only ever adds time, here
    in stretches of 10-30 s, so the quiet end of a run's cycles repeats
    from run to run where their median does not (README, "The quiet
    eighth")."""
    ordered = sorted(values, reverse=better == "higher")
    return ordered[(len(ordered) - 1) // 8]


def cycle_table(samples: list, rounds: list) -> list[dict]:
    """Every time metric of every cycle.  *rounds* are the cycles'
    ``(ops, wall, cpu)`` in order; a cycle's ops are the next ``ops``
    of *samples*."""
    table, first = [], 0
    for ops, wall, cpu in rounds:
        cycle = samples[first:first + ops]
        first += ops
        latencies = sorted(s[1] for s in cycle)
        table.append({
            "throughput_ops_s": ops / wall,
            "latency_geomean_ms": latency_geomean(cycle) * 1e3,
            "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
            "latency_p90_ms": percentile(latencies, 0.9) * 1e3,
            "cpu_ms_per_op": 1e3 * cpu / ops,
        })
    return table


def end_to_end(samples: list, rounds: list) -> dict:
    """Each time metric is computed cycle by cycle (every cycle runs the
    same multiset of ops) and reported as the run's quiet eighth; the
    throughput is scaled by the share of ops that answered correctly."""
    table = cycle_table(samples, rounds)
    better = {spec["name"]: spec["better"] for spec in SPEC["end_to_end"]}
    values = {metric: quiet([row[metric] for row in table], better[metric])
              for metric in table[0]}
    values["throughput_ops_s"] *= (
        sum(1 for s in samples if s[2]) / len(samples))
    return values


def tagged(values: dict, specs: list[dict]) -> dict:
    """``{name: {value, unit}}`` for exactly the metrics *specs* name;
    a layer metric the workload did not produce is a layer it bypasses
    and reads 0."""
    unknown = set(values) - {spec["name"] for spec in specs}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: "
                       f"{sorted(unknown)}")
    return {spec["name"]: {"value": values.get(spec["name"], 0.0),
                           "unit": spec["unit"]} for spec in specs}


def run_one(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    """Set up, measure and check one workload in this process."""
    cls = load_workloads()[name]
    scale = SMOKE_SCALE if smoke else cls.scale
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = None
    # a terminated run unwinds through the ``finally`` below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if trace:
            import tracing

            recorder = tracing.Recorder(name)
            workload = cls(seed, scale, workdir)
            workload.rec = recorder
            with recorder.span("setup"):
                workload.setup()
            workload.rec = tracing.NULL
            workload.oracle()
            plain, _rounds = workload.run(seconds / 2)
            workload.rec = recorder
            samples, _rounds = workload.run(seconds / 2)
            values = workload.layers()
            values["trace_overhead_ratio"] = (
                latency_geomean(samples) / latency_geomean(plain))
            recorder.write(OUT / f"trace-{name}.jsonl")
            for span, own in sorted(recorder.self_times().items(),
                                    key=lambda item: -item[1]):
                print(f"{name}: self time {span} {own:.3f} s",
                      file=sys.stderr)
            samples = plain + samples
            metrics = tagged(values, SPEC["per_layer"])
        else:
            setup_seconds = []

            def set_up() -> None:
                nonlocal workload
                if workload is not None:
                    workload.close()
                    workload = None
                    gc.collect()
                start = time.perf_counter()
                workload = cls(seed, scale, workdir)
                workload.setup()
                setup_seconds.append(time.perf_counter() - start)

            for _ in range(1 if smoke else SETUPS):
                set_up()
            workload.oracle()
            samples, rounds = workload.run(seconds)
            values = end_to_end(samples, rounds)
            values["peak_rss_mb"] = workload.peak_rss_mb()
            for _ in range(0 if smoke else SETUPS):
                set_up()
            values["setup_s"] = quiet(setup_seconds)
            metrics = tagged(values, SPEC["end_to_end"])
            for q in (0.5, 0.9):
                templates, width = rank_window(samples, q)
                print(f"{name}: rank {q} +-{RANK_WINDOW} holds "
                      f"{'/'.join(templates)}, {width:.1%} wide",
                      file=sys.stderr)
    finally:
        # every path out: the server, the probes' pool workers and
        # resource tracker are stopped and waited for
        if workload is not None:
            workload.close()
        import layers

        layers.stop_processes()
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for s in samples if not s[2])
    return {"correct": failed == 0, "attempted": len(samples),
            "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------
# many runs: --all, --smoke, --repeat, --check-noise
# ----------------------------------------------------------------------

def spawn(name: str, seed: int, seconds: float, trace: bool,
          smoke: bool) -> dict:
    """One run in a fresh process (its own peak RSS, caches, server)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{name}: no result (exit {done.returncode})")
    return json.loads(lines[-1])


def print_metrics(name: str, result: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")


def run_all(seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    wrong = 0
    for name in WORKLOAD_NAMES:
        for traced in (False, True) if trace else (False,):
            result = spawn(name, seed, seconds, traced, smoke)
            print_metrics(name, result)
            if not traced:
                print(f"{name} failed_ops_ratio "
                      f"{result['failed'] / result['attempted']:.6g} ratio")
            wrong += not result["correct"]
    return 1 if wrong else 0


def environment(seed: int) -> dict:
    import numpy

    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
        "git_commit": commit.stdout.strip() or "unknown",
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def run_repeat(repeat: int, seed: int, seconds: float, out: str) -> int:
    """*repeat* runs of every workload, seeds ``seed .. seed+repeat-1``
    (what the driver does); medians, quartiles and the spread
    ``(q3 - q1) / median`` per metric."""
    record = {"environment": environment(seed), "seconds": seconds,
              "repeat": repeat, "workloads": {}}
    wrong = 0
    for name in WORKLOAD_NAMES:
        runs = [spawn(name, seed + i, seconds, False, False)
                for i in range(repeat)]
        wrong += sum(not run["correct"] for run in runs)
        table = {}
        for spec in SPEC["end_to_end"]:
            values = [run["metrics"][spec["name"]]["value"] for run in runs]
            table[spec["name"]] = {"values": values, **quartiles(values)}
            row = table[spec["name"]]
            print(f"{name} {spec['name']} {row['median']:.6g} "
                  f"{spec['unit']} q1 {row['q1']:.6g} q3 {row['q3']:.6g} "
                  f"spread {row['spread']:.2%} of bound {spec['bound']:.0%}")
        table["failed_ops"] = sum(run["failed"] for run in runs)
        record["workloads"][name] = table
    Path(out).write_text(json.dumps(record, indent=1) + "\n")
    return 1 if wrong else 0


def check_noise(first: str, second: str) -> int:
    """Two ``--repeat`` sets of one commit must agree: every spread
    (``setup_s`` excepted) and every worsening of the second median over
    the first within the metric's bound."""
    a, b = (json.loads(Path(p).read_text())["workloads"]
            for p in (first, second))
    problems = 0
    for name in WORKLOAD_NAMES:
        for spec in SPEC["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            one, two = a[name][metric], b[name][metric]
            worse = (two["median"] - one["median"]) / one["median"]
            if spec["better"] == "higher":
                worse = -worse
            spread = max(one["spread"], two["spread"])
            bad = worse > bound or (metric != "setup_s" and spread > bound)
            problems += bad
            print(f"{'FAIL' if bad else 'ok  '} {name} {metric}: medians "
                  f"{one['median']:.6g} -> {two['median']:.6g} "
                  f"({worse:+.1%} worse), spread {spread:.1%}, "
                  f"bound {bound:.0%}")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="every workload, one fresh process each")
    parser.add_argument("--smoke", action="store_true",
                        help=f"scale {SMOKE_SCALE}, one cycle per workload, "
                             "both passes (implies --all without "
                             "--workload)")
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="N runs per workload; writes --out")
    parser.add_argument("--out", default=str(OUT / "repeat.json"))
    parser.add_argument("--check-noise", nargs=2, metavar="JSON")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.check_noise:
        return check_noise(*args.check_noise)
    seconds = 0.0 if args.smoke else args.seconds
    if args.workload:
        result = run_one(args.workload, args.seed, seconds,
                         bool(args.trace), args.smoke)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    OUT.mkdir(exist_ok=True)
    if args.repeat:
        return run_repeat(args.repeat, args.seed, seconds, args.out)
    if args.all or args.smoke:
        return run_all(args.seed, seconds, bool(args.trace) or args.smoke,
                       args.smoke)
    parser.error("give --workload, --all, --smoke, --repeat or "
                 "--check-noise")


if __name__ == "__main__":
    raise SystemExit(main())
