"""Relational substrate: loop-lifted sequences and the columnar
(offsets + values) join-result backbone."""

from repro.relational.columnar import (
    ColumnarResult,
    ColumnarStepResult,
    complement,
)
from repro.relational.sequence import (
    IterSeq,
    LazyIterData,
    Loop,
    expand_loop,
    unlift,
)

__all__ = [
    "ColumnarResult",
    "ColumnarStepResult",
    "complement",
    "IterSeq",
    "LazyIterData",
    "Loop",
    "expand_loop",
    "unlift",
]
