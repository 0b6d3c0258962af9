"""Naive quadratic StandOff joins — the paper's baselines and our oracle.

These functions implement the four StandOff joins (§3.1) literally from
their definitions, comparing every context area with every candidate area.
They correspond to the paper's Alternatives 1 and 2 (XQuery user-defined
functions, Figures 2 and 3): evaluation cost is ``O(|S1| * |S2|)`` per
iteration.

Because they are a direct transcription of the definitions, they double as
the *reference semantics* against which the merge-join algorithms are
property-tested.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from repro.core.region import Area


class StandoffOp(Enum):
    """The four StandOff joins of §3.1, in the paper's order."""

    SELECT_NARROW = "select-narrow"   # containment semi-join
    SELECT_WIDE = "select-wide"       # overlap semi-join
    REJECT_NARROW = "reject-narrow"   # containment anti-join
    REJECT_WIDE = "reject-wide"       # overlap anti-join

    @property
    def is_reject(self) -> bool:
        return self in (StandoffOp.REJECT_NARROW, StandoffOp.REJECT_WIDE)

    @property
    def is_narrow(self) -> bool:
        return self in (StandoffOp.SELECT_NARROW, StandoffOp.REJECT_NARROW)

    @classmethod
    def from_name(cls, name: str) -> "StandoffOp":
        """Look up by the surface syntax name (e.g. ``select-narrow``)."""
        for op in cls:
            if op.value == name:
                return op
        raise ValueError(f"unknown StandOff operator {name!r}")


def _matches(op: StandoffOp, context_area: Area, candidate_area: Area) -> bool:
    """Does *candidate_area* satisfy the (positive) predicate of *op*?"""
    if op.is_narrow:
        return context_area.contains(candidate_area)
    return context_area.overlaps(candidate_area)


def naive_join(op: StandoffOp,
               context: Sequence[tuple[int, Area]],
               candidates: Sequence[tuple[int, Area]]) -> list[int]:
    """Single-sequence naive StandOff join.

    :param context: ``(node_id, Area)`` pairs — the S1 sequence.
    :param candidates: ``(node_id, Area)`` pairs — the S2 sequence.
    :returns: matching candidate node ids, unique, in ascending id order
        (node ids are pre-order ranks, so ascending id = document order).

    Reject semantics: a candidate is returned when it matches *no* context
    area.  With an empty context sequence the result is empty — a StandOff
    step without context nodes yields nothing (XPath step semantics; see
    DESIGN.md §5 on this corner case).
    """
    if not context:
        return []
    out: list[int] = []
    seen: set[int] = set()
    for cand_id, cand_area in candidates:
        if cand_id in seen:
            continue
        hit = any(_matches(op, ctx_area, cand_area)
                  for _ctx_id, ctx_area in context)
        if hit != op.is_reject:
            seen.add(cand_id)
            out.append(cand_id)
    out.sort()
    return out


def naive_join_loop(op: StandoffOp,
                    context: Sequence[tuple[int, int, Area]],
                    candidates: Sequence[tuple[int, Area]]
                    ) -> dict[int, list[int]]:
    """Loop-lifted naive StandOff join (the oracle for the merge joins).

    :param context: ``(iter, node_id, Area)`` triples; the context
        sequence of loop iteration ``iter`` is the set of its triples.
    :param candidates: ``(node_id, Area)`` pairs shared by all iterations.
    :returns: mapping ``iter -> matching candidate ids`` (unique,
        ascending).  Only iterations present in *context* appear.
    """
    per_iter: dict[int, list[tuple[int, Area]]] = {}
    for it, node_id, area in context:
        per_iter.setdefault(it, []).append((node_id, area))
    return {it: naive_join(op, ctx, candidates)
            for it, ctx in per_iter.items()}

