"""Core stand-off annotation model and the StandOff join algorithms.

This package is the paper's primary contribution in library form:

* :class:`~repro.core.region.Region` / :class:`~repro.core.region.Area` —
  the annotation primitives (§2, §3.1);
* :mod:`~repro.core.relations` — Allen's 13 interval relations and the
  paper's containment/overlap reduction (§3);
* :class:`~repro.core.region_index.RegionIndex` — the ``start|end|id``
  region index clustered on start (§4.3);
* :mod:`~repro.core.naive` — quadratic reference joins (Figures 2/3);
* :mod:`~repro.core.mergejoin_basic` / :mod:`~repro.core.mergejoin_ll` —
  the Basic and Loop-Lifted StandOff MergeJoin families (§4.4, §4.5),
  kept as oracles and as the Figure 6 / ablation reproduction
  (``kernel="ll"``);
* :mod:`~repro.core.kernels_vec` — the batched NumPy kernels for the
  loop-lifted joins (``kernel="vectorized"``, the serving kernel),
  building :class:`~repro.relational.columnar.ColumnarResult` values
  natively, with :func:`~repro.core.kernels_vec.kernel_join` as the
  kernel dispatcher;
* :func:`~repro.core.steps.standoff_step` — one fragment's step
  (§3.3): its ``(iter, pre)`` context columns and pushed-down candidate
  ids in, a :class:`~repro.relational.columnar.ColumnarResult` out,
  under the chosen strategy and fan-out.
"""

from repro.core.mergejoin_basic import (
    basic_join,
    reject_narrow,
    reject_wide,
    select_narrow,
    select_wide,
)
from repro.core.kernels_vec import (
    kernel_join,
    vec_join,
    vec_reject_narrow,
    vec_reject_wide,
    vec_select_narrow,
    vec_select_wide,
)
from repro.core.mergejoin_ll import (
    IterContext,
    JoinResult,
    ll_join,
    ll_reject_narrow,
    ll_reject_wide,
    ll_select_narrow,
    ll_select_wide,
)
from repro.core.naive import StandoffOp, naive_join, naive_join_loop
from repro.core.region import Area, Region
from repro.core.region_index import RegionIndex, RegionTable
from repro.relational.columnar import ColumnarResult
from repro.core.relations import (
    AllenRelation,
    CONTAINMENT_RELATIONS,
    OVERLAP_RELATIONS,
    classify,
    region_contains,
    region_overlaps,
)
from repro.core.steps import Strategy, standoff_step

__all__ = [
    "Area",
    "Region",
    "AllenRelation",
    "CONTAINMENT_RELATIONS",
    "OVERLAP_RELATIONS",
    "classify",
    "region_contains",
    "region_overlaps",
    "RegionIndex",
    "RegionTable",
    "StandoffOp",
    "naive_join",
    "naive_join_loop",
    "basic_join",
    "select_narrow",
    "select_wide",
    "reject_narrow",
    "reject_wide",
    "ColumnarResult",
    "IterContext",
    "JoinResult",
    "ll_join",
    "ll_select_narrow",
    "ll_select_wide",
    "ll_reject_narrow",
    "ll_reject_wide",
    "kernel_join",
    "vec_join",
    "vec_select_narrow",
    "vec_select_wide",
    "vec_reject_narrow",
    "vec_reject_wide",
    "Strategy",
    "standoff_step",
]
