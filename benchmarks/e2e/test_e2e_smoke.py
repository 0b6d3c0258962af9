"""Tier-1 smoke test of the end-to-end benchmark (collected from the
repository root: ``test_*.py``).

``--smoke`` runs every workload at scale 0.1 for one cycle, untraced and
traced.  The environment of all five CI modes is set at once: the
benchmark pins its configuration and must not inherit any of it.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = str(HERE / "run.py")
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

CI_MODES = {
    "REPRO_WORKERS": "4", "REPRO_SHARD_MIN_ROWS": "1",
    "REPRO_PLAN_CACHE": "0", "REPRO_SHRED_CACHE": "0",
    "REPRO_STORAGE": "mmap", "REPRO_LOCKCHECK": "1",
}


def test_smoke_prints_every_metric_of_every_workload():
    done = subprocess.run(
        [sys.executable, RUN, "--smoke"], env={**os.environ, **CI_MODES},
        capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr[-2000:]
    printed = {}
    for line in done.stdout.splitlines():
        workload, metric, value, unit = line.split()
        printed[workload, metric] = (float(value), unit)
    for workload in SPEC["workloads"]:
        name = workload["name"]
        for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
            value, unit = printed[name, spec["name"]]
            assert math.isfinite(value), (name, spec["name"])
            assert unit == spec["unit"], (name, spec["name"])
        for spec in SPEC["end_to_end"]:
            assert printed[name, spec["name"]][0] > 0, (name, spec["name"])
        assert printed[name, "failed_ops_ratio"] == (0.0, "ratio")
        assert printed[name, "trace_overhead_ratio"][0] > 0


def _repeat_file(path: Path, median: float, spread: float) -> str:
    row = {"median": median, "spread": spread}
    path.write_text(json.dumps({"workloads": {
        w["name"]: {m["name"]: row for m in SPEC["end_to_end"]}
        for w in SPEC["workloads"]}}))
    return str(path)


def test_check_noise_fails_beyond_the_bound(tmp_path):
    base = _repeat_file(tmp_path / "a.json", 100.0, 0.01)
    same = _repeat_file(tmp_path / "b.json", 101.0, 0.01)
    far = _repeat_file(tmp_path / "c.json", 150.0, 0.01)
    noisy = _repeat_file(tmp_path / "d.json", 100.0, 0.5)

    def check(first, second):
        return subprocess.run(
            [sys.executable, RUN, "--check-noise", first, second],
            capture_output=True, text=True, timeout=60,
            check=False).returncode

    assert check(base, same) == 0
    assert check(base, far) == 1        # lower-is-better metrics worsened
    assert check(far, base) == 1        # throughput_ops_s worsened
    assert check(base, noisy) == 1
