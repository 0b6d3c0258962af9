"""Automated claim checker: re-verifies the paper's headline claims.

Runs a fast, self-contained version of every quantitative claim the
reproduction targets and prints PASS/FAIL per claim::

    python -m repro.bench.claims [--scale 0.35]

This is deliberately smaller than the full Figure 6 sweep (seconds, not
minutes) — a smoke test that the *shape* of the evaluation still holds
after any code change.  README.md names the full-size runs: the Figure 6
sweep and the kernel trajectory.
"""

from __future__ import annotations

import argparse
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from repro.bench.figure6 import build_database
from repro.config import KERNEL_LL
from repro.xmark import query_text


@dataclass
class ClaimResult:
    claim: str
    passed: bool
    detail: str


def _time(fn: Callable, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def check_claims(scale: float = 0.35, seed: int = 42) -> list[ClaimResult]:
    """Run all claim checks; returns one result per claim."""
    results: list[ClaimResult] = []
    db, label = build_database(scale, seed)
    db_small, _ = build_database(scale / 2, seed)

    def add(claim: str, passed: bool, detail: str) -> None:
        results.append(ClaimResult(claim, passed, detail))

    # -- §3.1: the four joins return the paper's table ------------------
    video = _video_db()
    table = {
        "select-narrow": ["Intro"],
        "select-wide": ["Intro", "Interview"],
        "reject-narrow": ["Interview", "Outro"],
        "reject-wide": ["Outro"],
    }
    ok = True
    for op, expected in table.items():
        got = [n.get_attribute("id") for n in video.query(
            f'doc("video.xml")//music[@artist="U2"]/{op}::shot')]
        ok = ok and got == expected
    add("§3.1 table: four joins on Figure 1", ok,
        "all four operators" if ok else "MISMATCH")

    # -- §4.6: strategies agree on all benchmark queries -----------------
    ok = True
    for qid in ("q1", "q2", "q6", "q7"):
        query = query_text(qid, "xmark.xml", standoff=True)
        rendered = {s: db_small.query(query, strategy=s,
                                      kernel=KERNEL_LL).serialize()
                    for s in ("udf", "basic", "ll")}
        ok = ok and len(set(rendered.values())) == 1
    add("§4.6: udf/basic/ll return identical results", ok, "q1,q2,q6,q7")

    # -- §4.6 Q2: loop-lifted beats basic by a factor that GROWS with
    # document size (the basic variant re-scans the index per iteration,
    # so it eventually DNFs in the full sweep) ---------------------------
    q2 = query_text("q2", "xmark.xml", standoff=True)
    basic = _time(lambda: db.query(q2, strategy="basic"), repeats=2)
    ll = _time(lambda: db.query(q2, strategy="ll", kernel=KERNEL_LL),
               repeats=2)
    basic_small = _time(lambda: db_small.query(q2, strategy="basic"),
                        repeats=2)
    ll_small_q2 = _time(lambda: db_small.query(q2, strategy="ll",
                                               kernel=KERNEL_LL),
                        repeats=2)
    ratio = basic / ll if ll else float("inf")
    ratio_small = (basic_small / ll_small_q2 if ll_small_q2
                   else float("inf"))
    add("§4.6 Q2: basic/loop-lifted gap grows with document size",
        ratio > max(1.1, ratio_small),
        f"ratio {ratio_small:.1f}x -> {ratio:.1f}x at {label} "
        "(18x at 6MB in the full sweep)")

    # -- §4.6 Q2: the UDF variant grows quadratically ---------------------
    udf_small = _time(lambda: db_small.query(q2, strategy="udf"),
                      repeats=1)
    udf_large = _time(lambda: db.query(q2, strategy="udf"), repeats=1)
    ll_small = _time(lambda: db_small.query(q2, strategy="ll",
                                            kernel=KERNEL_LL), repeats=1)
    udf_growth = udf_large / udf_small if udf_small else float("inf")
    ll_growth = ll / ll_small if ll_small else float("inf")
    add("§4.6 Q2: UDF growth factor exceeds loop-lifted growth",
        udf_growth > ll_growth * 1.3,
        f"udf x{udf_growth:.1f} vs ll x{ll_growth:.1f} per size doubling")

    # -- §4.6 claim C: select-narrow within 2x of staircase --------------
    from repro.core.mergejoin_ll import IterContext, ll_select_narrow
    from repro.staircase.loop_lifted import ll_descendant_join

    stored = db.store.get("xmark.xml")
    shredded = stored.shredded
    index = stored.region_index()
    auctions = shredded.elements_named("open_auction")
    rows = [(it, int(pre)) for it, pre in enumerate(auctions.tolist())]
    bidders = shredded.elements_named("bidder")
    cand = index.candidates(bidders)
    fetched = index.fetch([pre for _it, pre in rows])
    spans = {i: (s, e) for s, e, i in zip(
        fetched.starts.tolist(), fetched.ends.tolist(),
        fetched.ids.tolist())}
    context = IterContext.from_rows(
        (it, pre, *spans[pre]) for it, pre in rows)
    t_stair = _time(lambda: ll_descendant_join(shredded, rows, bidders))
    t_narrow = _time(lambda: ll_select_narrow(context, cand))
    ratio = t_narrow / t_stair if t_stair else float("inf")
    add("§4.6: select-narrow <= 2x loop-lifted staircase descendant",
        ratio <= 2.0, f"ratio {ratio:.2f}x (paper: <=1.2x)")

    # -- §3.3 (ii): per-document query beats global index ----------------
    from repro.core import StandoffOp, basic_join
    from repro.core.global_index import (
        GlobalRegionIndex,
        global_standoff_join,
    )

    per_frag = {i: stored.region_index() for i in range(1, 9)}
    gidx = GlobalRegionIndex(per_frag)
    ctx_ids = index.annotated_ids()[:100]
    ctx_table = index.fetch(ctx_ids.tolist())
    ctx_rows = [(0, 1, int(n)) for n in ctx_ids]
    t_local = _time(lambda: basic_join(StandoffOp.SELECT_WIDE,
                                       ctx_table, index.table))
    t_global = _time(lambda: global_standoff_join(
        StandoffOp.SELECT_WIDE, ctx_rows, gidx, per_frag))
    add("§3.3 (ii): single-doc query faster on per-document index",
        t_local < t_global,
        f"local {t_local * 1e3:.1f}ms vs global {t_global * 1e3:.1f}ms "
        "(8-doc collection)")

    # -- §3.3 (iii): pushdown wins for selective name tests --------------
    q_selective = ('doc("xmark.xml")//site'
                   '/select-narrow::people/select-narrow::person')
    # Alternating runs, compared by median: a slow stretch of the
    # machine hits both sides alike.
    policies, runs = ("always", "never"), ([], [])
    for _ in range(5):
        for policy, times in zip(policies, runs):
            times.append(_time(lambda: db.query(q_selective,
                                                pushdown=policy),
                               repeats=1))
    t_push, t_post = map(statistics.median, runs)
    rows_push, rows_post = (_candidate_rows(db, q_selective,
                                            pushdown=policy)
                            for policy in policies)
    add("§3.3 (iii): pushdown beats post-filter on selective tests",
        t_push < t_post and rows_push < rows_post,
        f"pushdown {t_push * 1e3:.0f}ms vs post-filter "
        f"{t_post * 1e3:.0f}ms (medians of 5), {rows_push} vs "
        f"{rows_post} candidate rows joined")

    return results


def _candidate_rows(db, query: str, **knobs) -> int:
    """How many candidate region rows one run of *query* hands to the
    StandOff joins (the Basic MergeJoin's and the loop-lifted ones)."""
    from repro.core import steps

    handed, joins = [], (steps.basic_join, steps.kernel_join)

    def counted(join):
        return lambda op, context, candidates, **kwargs: \
            handed.append(len(candidates)) or join(op, context, candidates,
                                                   **kwargs)

    steps.basic_join, steps.kernel_join = map(counted, joins)
    try:
        db.query(query, **knobs)
    finally:
        steps.basic_join, steps.kernel_join = joins
    return sum(handed)


def _video_db():
    from repro.xquery import Database

    db = Database()
    db.add_document("video.xml", """
        <sample>
          <video>
            <shot id="Intro" start="0" end="8"/>
            <shot id="Interview" start="8" end="64"/>
            <shot id="Outro" start="64" end="94"/>
          </video>
          <audio>
            <music artist="U2" start="0" end="31"/>
            <music artist="Bach" start="52" end="94"/>
          </audio>
        </sample>""")
    return db


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Re-verify the paper's headline claims (fast)")
    parser.add_argument("--scale", type=float, default=0.35)
    args = parser.parse_args(argv)
    results = check_claims(scale=args.scale)
    width = max(len(r.claim) for r in results) + 2
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failures += 1
        print(f"{status}  {r.claim.ljust(width)} {r.detail}")
    print(f"\n{len(results) - failures}/{len(results)} claims hold")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
