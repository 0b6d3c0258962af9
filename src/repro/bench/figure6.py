"""Figure 6 regeneration: StandOff XMark Q1/Q2/Q6/Q7 across document
sizes for the three implementations.

The paper's panels plot seconds (log scale) over document sizes
11 MB-1100 MB for *XQuery Function with Candidate Sequence* (our
``udf`` strategy), *Basic StandOff MergeJoin* (``basic``) and
*Loop-Lifted StandOff MergeJoin* (``ll``), with DNF marks where a
variant exceeded one hour.  We sweep a geometric scale series (document
sizes reported in real megabytes of serialized XML) under a
configurable DNF budget.  Every series runs ``kernel="ll"``, so the
loop-lifted one times Listing 1 and not the serving kernel.

Run from the command line::

    python -m repro.bench.figure6 --scales 0.25,0.5,1,2 --budget 20

or programmatically via :func:`run_figure6`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field

from repro.bench.harness import DNF, Measurement, format_table, \
    median_runtime
from repro.config import KERNEL_LL
from repro.xmark import generate_xmark_document, query_text, standoffize
from repro.xquery import Database

STRATEGY_LABELS = {
    "udf": "XQuery Function w/ Cand.Seq.",
    "basic": "Basic StandOff MergeJoin",
    "ll": "Loop-Lifted StandOff MergeJoin",
}

QUERIES = ("q1", "q2", "q6", "q7")


@dataclass
class Figure6Config:
    scales: tuple[float, ...] = (0.25, 0.5, 1.0)
    queries: tuple[str, ...] = QUERIES
    strategies: tuple[str, ...] = ("udf", "basic", "ll")
    budget_seconds: float = 20.0
    repeats: int = 1
    seed: int = 42
    skip_after_dnf: bool = True


@dataclass
class Figure6Result:
    config: Figure6Config
    size_labels: dict[float, str] = field(default_factory=dict)
    measurements: dict[str, list[Measurement]] = field(
        default_factory=dict)

    def tables(self) -> str:
        parts = []
        for query in self.config.queries:
            parts.append(format_table(
                f"StandOff XMark {query.upper()} (seconds)",
                self.measurements[query]))
        return "\n\n".join(parts)


def build_database(scale: float, seed: int = 42) -> tuple[Database, str]:
    """Generate, standoffize and load one scale point; returns the
    database and the size label (serialized megabytes)."""
    source = generate_xmark_document(scale=scale, seed=seed)
    bundle = standoffize(source, permute=True)
    size_mb = len(bundle.document.serialize()) / 1e6
    label = f"{size_mb:.2f}MB"
    db = Database()
    db.store.add("xmark.xml", bundle.document)
    return db, label


def run_figure6(config: Figure6Config | None = None,
                verbose: bool = False) -> Figure6Result:
    config = config or Figure6Config()
    result = Figure6Result(config)
    databases: dict[float, tuple[Database, str]] = {}
    for scale in config.scales:
        databases[scale] = build_database(scale, config.seed)
        result.size_labels[scale] = databases[scale][1]

    for query_id in config.queries:
        rows: list[Measurement] = []
        dnf_strategies: set[str] = set()
        for scale in config.scales:
            db, label = databases[scale]
            query = query_text(query_id, "xmark.xml", standoff=True)
            for strategy in config.strategies:
                if config.skip_after_dnf and strategy in dnf_strategies:
                    rows.append(Measurement(STRATEGY_LABELS[strategy],
                                            label, DNF))
                    continue
                seconds = median_runtime(
                    lambda: db.query(query, strategy=strategy,
                                     kernel=KERNEL_LL),
                    config.budget_seconds, config.repeats)
                rows.append(Measurement(STRATEGY_LABELS[strategy],
                                        label, seconds))
                if seconds == DNF:
                    dnf_strategies.add(strategy)
                if verbose:
                    shown = "DNF" if seconds == DNF else f"{seconds:.3f}s"
                    print(f"  {query_id} {label} {strategy}: {shown}",
                          flush=True)
        result.measurements[query_id] = rows
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate Figure 6 of the paper")
    parser.add_argument("--scales", default="0.25,0.5,1",
                        help="comma-separated XMark scale factors")
    parser.add_argument("--queries", default="q1,q2,q6,q7")
    parser.add_argument("--strategies", default="udf,basic,ll")
    parser.add_argument("--budget", type=float, default=20.0,
                        help="DNF budget per run (seconds)")
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args(argv)
    config = Figure6Config(
        scales=tuple(float(s) for s in args.scales.split(",")),
        queries=tuple(args.queries.split(",")),
        strategies=tuple(args.strategies.split(",")),
        budget_seconds=args.budget,
        repeats=args.repeats,
    )
    result = run_figure6(config, verbose=True)
    print()
    print(result.tables())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
