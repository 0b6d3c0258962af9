"""In-memory span recorder of the benchmark's traced pass.

Spans are recorded by the benchmark around its own calls into the
program's layers (spans inside the program are ROADMAP item 2).  A span
is ``{id, name, workload, op, template, start, end, parent}``; the spans
of one op share its ``op`` number.  Everything stays in memory until
:meth:`Recorder.write` dumps it as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time


class Recorder:
    """Collects spans; nesting is tracked per thread."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._tls = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[dict]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def add(self, name: str, start: float, end: float, *,
            parent: dict | None = None, op: int | None = None,
            template: str | None = None) -> dict:
        """Record a finished span; *op*/*template* default to the
        parent's."""
        if parent is not None:
            op = parent["op"] if op is None else op
            template = parent["template"] if template is None else template
        span = {"id": None, "name": name, "workload": self.workload,
                "op": op, "template": template, "start": start, "end": end,
                "parent": None if parent is None else parent["id"]}
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, *, op: int | None = None,
             template: str | None = None):
        """Time the enclosed block as a child of the thread's open span."""
        stack = self._stack()
        span = self.add(name, time.perf_counter(), 0.0,
                        parent=stack[-1] if stack else None,
                        op=op, template=template)
        stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()

    # -- analysis ---------------------------------------------------------

    def durations(self, name: str) -> dict[str | None, list[float]]:
        """Seconds of every span called *name*, grouped by template."""
        out: dict[str | None, list[float]] = {}
        for span in self.spans:
            if span["name"] == name:
                out.setdefault(span["template"], []).append(
                    span["end"] - span["start"])
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the part its child spans
        cover (children of one span never overlap here, so the covered
        part is their sum)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        out: dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - covered[span["id"]]
            out[span["name"]] = out.get(span["name"], 0.0) + own
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class NullRecorder:
    """Tracing off: every span is the shared no-op context manager
    (which yields ``None``)."""

    _noop = contextlib.nullcontext()

    def span(self, name: str, **_attrs):
        return self._noop


NULL = NullRecorder()
