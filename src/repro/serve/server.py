"""The query server: admission control, timeouts, JSON-lines TCP.

See the package docstring for the design overview.  The asyncio side
of this module never evaluates anything itself: queries run on a
dedicated dispatch thread pool (one thread per admitted query — the
engine API is synchronous), and those threads in turn fan shard work
out to the shared thread/process executors exactly as a standalone
``Database.query`` call would.  The event loop only coordinates:
semaphores, timeouts, protocol framing.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass
from functools import partial

from repro.config import (
    DEFAULT_SERVE_CONCURRENCY,
    DEFAULT_SERVE_HEAVY_PAIRS,
    DEFAULT_SERVE_HEAVY_SLOTS,
    DEFAULT_SERVE_TIMEOUT,
    EXECUTOR_PROCESS,
    ExecOptions,
)
from repro.errors import ReproError
from repro.exec.cancel import CancelToken, QueryCancelled, cancel_scope
from repro.xquery import ast

#: Axes whose candidate pool is (a large fraction of) the whole
#: document: one such step scans; one nested under another multiplies.
_BROAD_AXES = frozenset({
    "descendant", "descendant-or-self",
    "following", "preceding",
})

#: StandOff step/function names that scan a region table.
_BROAD_STANDOFF_PREFIXES = ("select-", "reject-")


def _count_broad_steps(module: ast.Module) -> int:
    """How many document-scale scans the compiled module contains."""
    broad = 0
    for node in ast.walk(module):
        if isinstance(node, ast.AxisStep):
            axis = node.axis
            if axis in _BROAD_AXES \
                    or axis.startswith(_BROAD_STANDOFF_PREFIXES):
                broad += 1
        elif isinstance(node, ast.FunctionCall):
            name = node.name.rpartition(":")[2]
            if name.startswith(_BROAD_STANDOFF_PREFIXES):
                broad += 1
    return broad


def estimate_pair_budget(db, module: ast.Module) -> int:
    """Estimate the (context row, candidate) pairs *module* will probe.

    Deliberately coarse — admission control only needs to separate
    "scan over a scan" from "point lookup", not predict runtimes:

    * no document-scale step: ``0`` (pure arithmetic, variable echo);
    * one broad step: ~``n`` pairs — a single scan of the largest
      stored document's ``n`` nodes;
    * two or more broad steps: ``n**2`` — the loop-lifted shape of a
      scan whose context itself came from a scan (``for $s in //s
      return $s/following::w``), which is where the pair budget
      actually explodes.

    Compilation is free here: :meth:`Database.compile` hits the shared
    plan cache, and the miss it might take is one the subsequent
    evaluation would have paid anyway.
    """
    broad = _count_broad_steps(module)
    if broad == 0:
        return 0
    n = _collection_nodes(db)
    return n if broad == 1 else n * n


def _collection_nodes(db) -> int:
    """Node count of the largest stored document (shredded length —
    O(1) for mapped stores, and for memory stores a build the first
    real query would trigger anyway)."""
    n = 0
    for stored in db.store:
        n = max(n, int(stored.shredded.pre.size))
    return n


class QueryTimeout(ReproError):
    """A served query exceeded its timeout and was cancelled."""


@dataclass(frozen=True)
class ServeResult:
    """One answered query: the serialized items plus serving metadata."""

    serialized: str
    item_count: int
    lane: str
    elapsed: float


class QueryServer:
    """Admit concurrent queries over a shared :class:`Database`.

    Construct with exactly one of *db* (an engine to share — its plan
    cache and stored documents serve every session) or *store_path* (a
    published store file, opened O(1)).

    :param max_concurrency: queries evaluated at once (dispatch pool
        size and general admission semaphore).
    :param heavy_slots: slots of the heavy-query lane.
    :param heavy_pairs: pair-budget threshold for the heavy lane.
    :param default_timeout: per-query timeout (seconds) applied when a
        call/request carries none; ``0`` disables.
    :param knobs: :class:`~repro.config.ExecOptions` fields, checked
        here once; every served query runs under them (default
        ``strategy="ll"``).  With ``executor="process"`` and more than
        one worker, :meth:`start` warms the process pool — spawns the
        workers, imports the engine in each and, when serving a store
        file, has each worker ``open_store`` it — so the first query
        pays a shard job, not a cold start.
    """

    def __init__(self, db=None, *, store_path: str | None = None,
                 max_concurrency: int | None = None,
                 heavy_slots: int | None = None,
                 heavy_pairs: int | None = None,
                 default_timeout: float | None = None,
                 plan_cache_size: int | None = None,
                 **knobs):
        self.options = ExecOptions(**{"strategy": "ll", **knobs})
        if (db is None) == (store_path is None):
            raise ValueError(
                "pass exactly one of db= or store_path=")
        if db is None:
            from repro import storage

            db = storage.open_store(store_path,
                                    plan_cache_size=plan_cache_size)
        self.db = db
        self.store_path = store_path
        self.max_concurrency = (DEFAULT_SERVE_CONCURRENCY
                                if max_concurrency is None
                                else int(max_concurrency))
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        self.heavy_slots = (DEFAULT_SERVE_HEAVY_SLOTS
                            if heavy_slots is None else int(heavy_slots))
        self.heavy_slots = max(1, min(self.heavy_slots,
                                      self.max_concurrency))
        self.heavy_pairs = (DEFAULT_SERVE_HEAVY_PAIRS
                            if heavy_pairs is None else int(heavy_pairs))
        self.default_timeout = (DEFAULT_SERVE_TIMEOUT
                                if default_timeout is None
                                else float(default_timeout))
        self._threads: ThreadPoolExecutor | None = None
        self._admission: asyncio.Semaphore | None = None
        self._heavy_lane: asyncio.Semaphore | None = None
        self._in_flight = 0
        self._heavy_in_flight = 0
        #: serving counters (mutated only on the event-loop thread)
        self.stats: dict[str, int] = {
            "submitted": 0, "completed": 0, "errors": 0,
            "timeouts": 0, "cancelled": 0,
            "light": 0, "heavy": 0,
            "max_in_flight": 0, "max_heavy_in_flight": 0,
        }

    # -- lifecycle ------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._threads is not None

    async def start(self) -> "QueryServer":
        """Create the admission structures (idempotent) and, on the
        process executor with more than one worker, warm the pool."""
        if self.started:
            return self
        self._admission = asyncio.Semaphore(self.max_concurrency)
        self._heavy_lane = asyncio.Semaphore(self.heavy_slots)
        self._threads = ThreadPoolExecutor(
            max_workers=self.max_concurrency,
            thread_name_prefix="repro-serve")
        count = self.options.workers
        if self.options.executor == EXECUTOR_PROCESS and count > 1:
            from repro.exec import procpool

            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                self._threads, partial(procpool.warm_pool, count))
            if self.store_path is not None:
                uris = tuple(self.db.store.uris())
                await loop.run_in_executor(
                    self._threads,
                    partial(procpool.warm_store, count,
                            self.store_path, uris))
        return self

    async def stop(self) -> None:
        """Tear down the dispatch pool (in-flight queries finish)."""
        threads, self._threads = self._threads, None
        self._admission = None
        self._heavy_lane = None
        if threads is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, partial(threads.shutdown, wait=True))

    async def __aenter__(self) -> "QueryServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- admission ------------------------------------------------------

    def classify(self, text: str,
                 session_options: dict | None = None) -> str:
        """``"heavy"`` or ``"light"`` for *text* (see
        :func:`estimate_pair_budget`).  Queries that fail to compile
        classify light — the error surfaces on the query path, where
        the caller expects it."""
        try:
            module = self.db.compile(
                text, session_options=session_options).module
        except ReproError:
            return "light"
        budget = estimate_pair_budget(self.db, module)
        return "heavy" if budget >= self.heavy_pairs else "light"

    # -- querying -------------------------------------------------------

    async def query(self, text: str, *, timeout: float | None = None,
                    session_options: dict | None = None) -> ServeResult:
        """Admit, evaluate and answer one query.

        :param timeout: per-query timeout in seconds (``None``: the
            server default; ``0``: none).  On expiry the query's
            cancel token fires, the shard wait loops unwind, and
            :class:`QueryTimeout` is raised.
        :raises QueryTimeout: the timeout elapsed.
        :raises ReproError: whatever the engine raised.
        """
        if not self.started:
            raise RuntimeError("QueryServer is not started "
                               "(use 'async with server:' or await "
                               "server.start())")
        lane = self.classify(text, session_options)
        heavy = lane == "heavy"
        self.stats["submitted"] += 1
        self.stats[lane] += 1
        async with self._admission:
            if heavy:
                await self._heavy_lane.acquire()
            try:
                self._in_flight += 1
                self._heavy_in_flight += heavy
                self.stats["max_in_flight"] = max(
                    self.stats["max_in_flight"], self._in_flight)
                self.stats["max_heavy_in_flight"] = max(
                    self.stats["max_heavy_in_flight"],
                    self._heavy_in_flight)
                return await self._dispatch(text, timeout,
                                            session_options, lane)
            finally:
                self._in_flight -= 1
                self._heavy_in_flight -= heavy
                if heavy:
                    self._heavy_lane.release()

    async def _dispatch(self, text: str, timeout: float | None,
                        session_options: dict | None,
                        lane: str) -> ServeResult:
        effective = self.default_timeout if timeout is None \
            else float(timeout)
        token = CancelToken.after(effective if effective > 0 else None)
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(
            self._threads,
            partial(self._evaluate, text, token, session_options, lane))
        try:
            result = await asyncio.shield(future)
        except asyncio.CancelledError:
            # The awaiting task was cancelled: propagate to the shard
            # futures through the token, wait for the dispatch thread
            # to unwind (it holds shm segments and pool slots), then
            # let the cancellation continue.
            token.cancel()
            with suppress(BaseException):
                await future
            self.stats["cancelled"] += 1
            raise
        except QueryCancelled:
            self.stats["timeouts"] += 1
            raise QueryTimeout(
                f"query exceeded its {effective:g}s timeout") from None
        except BaseException:
            self.stats["errors"] += 1
            raise
        self.stats["completed"] += 1
        return result

    def _evaluate(self, text: str, token: CancelToken,
                  session_options: dict | None, lane: str) -> ServeResult:
        """Thread-side: run the query under its cancel scope."""
        started = time.perf_counter()
        with cancel_scope(token):
            result = self.db.query(text, options=self.options,
                                   session_options=session_options)
            serialized = result.serialize()
        return ServeResult(serialized, len(result), lane,
                           time.perf_counter() - started)

    # -- the JSON-lines TCP protocol --------------------------------------

    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """One client connection: JSON object per line, in and out.

        Requests on one connection are served *concurrently* (each
        gets its own task) — responses carry the request ``id`` and
        may arrive out of order, which is exactly what lets a point
        lookup overtake a pipelined scan.
        """
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("not an object")
                except ValueError:
                    await self._send(writer, write_lock, {
                        "id": None, "ok": False, "code": "bad-request",
                        "error": "each line must be one JSON object"})
                    continue
                task = asyncio.ensure_future(
                    self._respond(request, writer, write_lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            for task in tasks:
                task.cancel()
            with suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _respond(self, request: dict,
                       writer: asyncio.StreamWriter,
                       write_lock: asyncio.Lock) -> None:
        reply: dict = {"id": request.get("id")}
        op = request.get("op", "query")
        if op == "ping":
            reply.update(ok=True, pong=True)
        elif op == "stats":
            reply.update(ok=True, stats=dict(self.stats))
        elif op == "query":
            text = request.get("query")
            if not isinstance(text, str):
                reply.update(ok=False, code="bad-request",
                             error="'query' must be a string")
            else:
                reply.update(await self._answer(text, request))
        else:
            reply.update(ok=False, code="bad-request",
                         error=f"unknown op {op!r}")
        await self._send(writer, write_lock, reply)

    async def _answer(self, text: str, request: dict) -> dict:
        timeout = request.get("timeout")
        options = request.get("options")
        if timeout is not None and not isinstance(timeout, (int, float)):
            return {"ok": False, "code": "bad-request",
                    "error": "'timeout' must be a number"}
        if options is not None and not (
                isinstance(options, dict)
                and all(isinstance(k, str) and isinstance(v, str)
                        for k, v in options.items())):
            return {"ok": False, "code": "bad-request",
                    "error": "'options' must map strings to strings"}
        try:
            result = await self.query(text, timeout=timeout,
                                      session_options=options)
        except QueryTimeout as error:
            return {"ok": False, "code": "timeout", "error": str(error)}
        except ReproError as error:
            return {"ok": False, "code": "error", "error": str(error)}
        except Exception as error:   # noqa: BLE001 - protocol boundary
            return {"ok": False, "code": "internal",
                    "error": f"{type(error).__name__}: {error}"}
        return {"ok": True, "result": result.serialized,
                "items": result.item_count, "lane": result.lane,
                "elapsed_ms": round(result.elapsed * 1000.0, 3)}

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, lock: asyncio.Lock,
                    payload: dict) -> None:
        data = json.dumps(payload, ensure_ascii=False).encode() + b"\n"
        async with lock:
            writer.write(data)
            await writer.drain()


async def serve(server: QueryServer, host: str = "127.0.0.1",
                port: int = 0) -> asyncio.base_events.Server:
    """Start *server* (if needed) and listen on ``host:port``.

    Returns the asyncio server; ``port=0`` picks a free port
    (``sockets[0].getsockname()[1]`` reads it back).  Close it with
    ``tcp.close()`` / ``await tcp.wait_closed()``; stopping the
    :class:`QueryServer` afterwards is the caller's business.
    """
    await server.start()
    return await asyncio.start_server(server.handle_connection,
                                      host, port)
