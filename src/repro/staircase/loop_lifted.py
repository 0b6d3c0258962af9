"""Loop-lifted Staircase Join (Boncz et al., SIGMOD 2006; paper §4.1).

Computes the descendant step for *many* context sequences (one per loop
iteration) in a single sequential pass over the candidate pre ranks —
the technique whose order-of-magnitude win over iterated Staircase Join
motivated loop-lifting the StandOff MergeJoin the same way.

The implementation mirrors Listing 1 structurally, but the active-items
handling is simpler because pre/size windows never partially overlap:
within one iteration a new context window is either nested in the active
one (skipped by pruning) or starts after it ends (plain replacement);
no mid-list deletions are ever needed.
"""

from __future__ import annotations

from bisect import bisect_left, insort

import numpy as np

from repro.xmldb.shred import ShreddedDocument


def ll_descendant_join(doc: ShreddedDocument,
                       context: list[tuple[int, int]],
                       candidates: np.ndarray | None = None
                       ) -> dict[int, list[int]]:
    """Loop-lifted descendant step.

    :param context: ``(iter, pre)`` pairs, any order.
    :param candidates: optional sorted candidate pre ranks (selection
        pushdown); ``None`` scans all pre ranks.
    :returns: ``iter -> sorted result pre ranks``.
    """
    if not context:
        return {}
    size = doc.size
    rows = sorted({(int(pre), int(it)) for it, pre in context})
    # An unrestricted candidate sequence is the implicit pre range; a
    # Python range scans it positionally without materializing the
    # full ``arange(len(doc))`` (the merge only ever indexes forward).
    cand_list = (range(len(doc)) if candidates is None
                 else np.asarray(candidates, dtype=np.int64).tolist())
    n_cand = len(cand_list)

    # Active windows: (window_end, iter), ascending; one window per iter.
    entries: list[tuple[int, int]] = []
    by_iter: dict[int, tuple[int, int]] = {}
    result: dict[int, list[int]] = {}

    j = 0
    n_ctx = len(rows)
    # Candidates before the first window's start are descendants of
    # nothing (windows only begin at or after rows[0].pre + 1).
    first_lo = rows[0][0] + 1
    while j < n_cand and cand_list[j] < first_lo:
        j += 1

    for idx, (pre, it) in enumerate(rows):
        hi = pre + int(size[pre])
        cur = by_iter.get(it)
        if cur is not None and hi <= cur[0]:
            pass                        # nested in this iter's window
        else:
            if cur is not None:
                pos = bisect_left(entries, cur)
                del entries[pos]
            entry = (hi, it)
            insort(entries, entry)
            by_iter[it] = entry

        # The candidate batch runs for every context row — including
        # nested-skipped ones — so each batch's candidates start at or
        # after every active window's start.
        next_start = rows[idx + 1][0] + 1 if idx + 1 < n_ctx else None
        while j < n_cand and (next_start is None
                              or cand_list[j] < next_start):
            c = cand_list[j]
            cut = bisect_left(entries, (c,))
            for dropped in entries[:cut]:
                if by_iter.get(dropped[1]) is dropped:
                    del by_iter[dropped[1]]
            del entries[:cut]
            for _end, live_it in entries:
                result.setdefault(live_it, []).append(c)
            j += 1
        if j == n_cand:
            break
    return result


def iterated_descendant_join(doc: ShreddedDocument,
                             context: list[tuple[int, int]],
                             candidates: np.ndarray | None = None
                             ) -> dict[int, list[int]]:
    """The naive strategy: call Staircase Join once per iteration.

    Kept as the baseline the loop-lifted variant is benchmarked against
    (the [5] comparison the paper builds on).
    """
    from repro.staircase.staircase import descendant_join

    per_iter: dict[int, list[int]] = {}
    for it, pre in context:
        per_iter.setdefault(it, []).append(pre)
    out: dict[int, list[int]] = {}
    for it, pres in per_iter.items():
        res = descendant_join(doc, np.asarray(pres, dtype=np.int64),
                              candidates)
        if len(res):
            out[it] = res.tolist()
    return out


def _self_pres(pres: list[int],
               candidates: np.ndarray | None) -> list[int]:
    """Context pres surviving the or-self pool membership test."""
    if candidates is None:
        return sorted(set(pres))
    pool = set(np.asarray(candidates, dtype=np.int64).tolist())
    return sorted({pre for pre in pres if pre in pool})


def ll_axis_join(doc: ShreddedDocument, axis: str,
                 context: list[tuple[int, int]],
                 candidates: np.ndarray | None = None, *,
                 or_self: bool = False) -> dict[int, list[int]]:
    """Reference loop-lifted staircase axis step (dict results).

    The ``ll`` kernel of the staircase family: the descendant axis runs
    the single-pass :func:`ll_descendant_join`, the other axes — the
    sibling axes included — call the per-set joins of
    :mod:`repro.staircase.staircase` once per iteration; axis names are
    checked by :func:`repro.config.check_staircase_axis`.
    ``or_self`` includes a context pre when it is in the candidate
    pool.  Semantically identical to
    :func:`repro.staircase.kernels_vec.vec_staircase_join`.
    """
    from repro.staircase import staircase as sj

    per_iter: dict[int, list[int]] = {}
    for it, pre in context:
        per_iter.setdefault(int(it), []).append(int(pre))

    if axis == "descendant":
        out = ll_descendant_join(doc, context, candidates)
    else:
        from repro.config import check_staircase_axis

        check_staircase_axis(axis)
        fn = {"ancestor": sj.ancestor_join,
              "child": sj.child_join,
              "following": sj.following_join,
              "preceding": sj.preceding_join,
              "following-sibling": sj.following_sibling_join,
              "preceding-sibling": sj.preceding_sibling_join}[axis]
        out = {}
        for it, pres in per_iter.items():
            res = fn(doc, np.asarray(pres, dtype=np.int64), candidates)
            if len(res):
                out[it] = res.tolist()
    if or_self:
        if axis not in ("descendant", "ancestor"):
            raise ValueError(f"the {axis} axis has no or-self variant")
        for it, pres in per_iter.items():
            extra = _self_pres(pres, candidates)
            if extra:
                out[it] = sorted(set(out.get(it, [])) | set(extra))
    return out
