"""Relational substrate: loop-lifted sequences and the columnar
(offsets + values) join-result backbone."""

from repro.relational.columnar import (
    ColumnarResult,
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
    "complement",
    "IterSeq",
    "Loop",
    "NodeColumns",
    "expand_loop",
    "loop_positions",
    "unlift",
]
