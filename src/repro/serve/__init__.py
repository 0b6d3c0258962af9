"""Concurrent query serving: the asyncio front-end over the engine.

The paper pitches a standoff-annotation *service*; this package is the
serving layer that makes the engine answer like one.  A
:class:`QueryServer` admits many queries at once over one or more
published stores, sharing the per-``Database`` compiled-plan LRU
(keyed through ``Database._static_fingerprint``, so sessions with
different static contexts share one cache safely) and dispatching the
actual evaluation onto the existing shared thread/process shard
executors.  Every served query runs under the one
:class:`~repro.config.ExecOptions` the server was built with.

Two serving-specific mechanisms live here:

* **admission control** — every query passes a general concurrency
  semaphore, and queries whose *estimated pair budget*
  (:func:`estimate_pair_budget`) crosses the configured threshold must
  additionally win a slot in a much smaller heavy-query lane, so a
  scale-16 scan can never occupy every slot and starve point lookups;
* **timeout/cancellation** — each query runs under a
  :class:`repro.exec.cancel.CancelToken` whose deadline (or an asyncio
  task cancellation) propagates into the shard-future wait loops of
  both executors, cancelling pending shard work and reaping in-flight
  shared-memory results instead of orphaning them.

Use it embedded::

    async with QueryServer(store_path="corpus.repro") as server:
        result = await server.query("doc('d.xml')//s[@id='7']")

or over TCP (JSON lines; ``python -m repro.cli --serve``) via
:func:`serve`.
"""

from repro.serve.server import (
    QueryTimeout,
    QueryServer,
    ServeResult,
    estimate_pair_budget,
    serve,
)

__all__ = [
    "QueryServer",
    "QueryTimeout",
    "ServeResult",
    "estimate_pair_budget",
    "serve",
]
