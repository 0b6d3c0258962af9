"""Relational substrate: loop-lifted sequences and the columnar
(offsets + values) join-result backbone."""

from repro.relational.columnar import (
    ColumnarResult,
    ColumnarStepResult,
    complement,
)
from repro.relational.sequence import (
    IterSeq,
    Loop,
    NodeColumns,
    expand_loop,
    loop_positions,
    unlift,
)

__all__ = [
    "ColumnarResult",
    "ColumnarStepResult",
    "complement",
    "IterSeq",
    "Loop",
    "NodeColumns",
    "expand_loop",
    "loop_positions",
    "unlift",
]
