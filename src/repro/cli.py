r"""Command-line shell for the StandOff XQuery database.

One-shot::

    python -m repro.cli --load video.xml --query \
        'doc("video.xml")//music[@artist="U2"]/select-wide::shot'

Interactive::

    python -m repro.cli --load video.xml
    standoff> doc("video.xml")//shot
    standoff> \strategy ll
    standoff> \timing on
    standoff> \quit

Backslash commands: ``\load <uri> [path]``, ``\blob <uri> <path>``,
``\docs``, ``\strategy udf|basic|ll``, ``\kernel [standoff|staircase]
ll|vectorized|auto``, ``\workers serial|<n>``, ``\executor
thread|process``, ``\save-store <path>``, ``\store stats``,
``\cache stats|clear`` (the compiled-plan cache), ``\timing on|off``,
``\help``, ``\quit``.  The settings commands change the session's one
:class:`~repro.config.ExecOptions` and refuse a bad value with its
message.  Everything else is evaluated as a query; results print one
item per line (nodes serialized as XML).

Out-of-core stores: ``--store <path>`` opens a store file written by
``\save-store`` (or :func:`repro.storage.save_store`) instead of
parsing XML — an O(1) cold start off the memory-mapped columns; the
file holds the columns only, and nodes are built from them on demand.
``--storage mmap`` spills freshly loaded documents to mapped store
files, which is what lets ``--executor process`` fan shards out to
worker processes sharing the column pages.

Serving: ``--serve`` starts a concurrent JSON-lines query server
(:mod:`repro.serve`) over the loaded documents or opened store
instead of the REPL::

    python -m repro.cli --store corpus.repro --serve --port 7700

Each request is one JSON object per line (``{"op": "query", "query":
..., "id": ...}``); responses may arrive out of order and echo the
request ``id``.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

from repro.config import (
    DEFAULT_SERVE_TIMEOUT,
    DEFAULT_STORAGE_BACKEND,
    FAMILY_STAIRCASE,
    FAMILY_STANDOFF,
    SUPPORTED_STORAGE_BACKENDS,
    ExecOptions,
)
from repro.errors import ReproError
from repro.xquery.engine import Database

PROMPT = "standoff> "

HELP = """\
\\load <uri> [path]   parse an XML file and store it under <uri>
\\blob <uri> <path>   register a BLOB file
\\docs                list stored documents and BLOBs
\\strategy <name>     set evaluation strategy: udf | basic | ll
\\kernel [family] <name>
                     set the join kernel (ll | vectorized | auto) for a
                     family (standoff | staircase; default standoff)
\\workers <n>         shard joins across <n> worker threads
                     (serial = single-shard deterministic reference)
\\executor <name>     where sharded joins run: thread | process
                     (process needs store-backed documents — open a
                     store with --store or use --storage mmap)
\\save-store <path>   write every stored document's columns (and no
                     XML text: the columns are the document) to a
                     versioned store file (reopen with --store)
\\store stats         per-document storage backend, file size, and
                     mapped vs resident bytes
\\cache stats|clear   show / reset the compiled-plan cache
\\timing on|off       print query wall-clock times
\\help                this text
\\quit                exit
any other input      evaluate as an XQuery query"""


class CliSession:
    """A scriptable shell session (the REPL drives this object)."""

    def __init__(self, out=None, *, plan_cache_size: int | None = None,
                 storage_backend: str | None = None,
                 store_path: str | None = None):
        if store_path is not None:
            from repro import storage

            self.db = storage.open_store(
                store_path, plan_cache_size=plan_cache_size)
        else:
            self.db = Database(plan_cache_size=plan_cache_size,
                               storage_backend=storage_backend)
        self.options = ExecOptions()
        self.timing = False
        self.out = out if out is not None else sys.stdout
        self.done = False

    def emit(self, text: str = "") -> None:
        print(text, file=self.out)

    # -- commands -----------------------------------------------------------

    def load_document(self, uri: str, path: str | None = None) -> None:
        source = Path(path if path is not None else uri)
        self.db.add_document(uri, source.read_text(encoding="utf-8"))
        stored = self.db.document(uri)
        self.emit(f"loaded {uri} "
                  f"({stored.document.node_count} nodes)")

    def load_blob(self, uri: str, path: str) -> None:
        self.db.add_blob(uri, Path(path).read_bytes())
        self.emit(f"registered BLOB {uri}")

    def list_docs(self) -> None:
        uris = self.db.store.uris()
        if not uris and not len(self.db.blobs):
            self.emit("(no documents)")
            return
        for uri in uris:
            stored = self.db.document(uri)
            self.emit(f"doc  {uri}  ({stored.document.node_count} nodes)")
        for uri in self.db.blobs.uris():
            blob = self.db.blobs.get(uri)
            self.emit(f"blob {uri}  ({len(blob)} bytes)")

    def set_option(self, label: str, field: str, value: str) -> None:
        try:
            self.options = replace(self.options, **{field: value})
        except ValueError as error:
            self.emit(f"error: {error}")
            return
        self.emit(f"{label} = {value}")

    def set_kernel(self, name: str, family: str = FAMILY_STANDOFF) -> None:
        if family == FAMILY_STAIRCASE:
            self.set_option("staircase kernel", "staircase_kernel", name)
        elif family == FAMILY_STANDOFF:
            self.set_option("kernel", "kernel", name)
        else:
            self.emit(f"error: unknown join family {family!r}; expected "
                      f"{FAMILY_STANDOFF!r} or {FAMILY_STAIRCASE!r}")

    def save_store(self, path: str) -> None:
        from repro import storage

        storage.save_store(path, self.db)
        size = Path(path).stat().st_size
        self.emit(f"saved {len(self.db.store)} document(s) to {path} "
                  f"({size} bytes)")

    def store_stats(self) -> None:
        from repro import storage

        rows = storage.store_stats(self.db)
        if not rows:
            self.emit("(no documents)")
            return
        for row in rows:
            line = f"{row['uri']}  backend={row['backend']}"
            if row["path"]:
                line += f"  file={row['path']}"
            if row["file_size"] is not None:
                line += f"  size={row['file_size']}"
            if row["mapped_bytes"] is not None:
                line += (f"  mapped={row['mapped_bytes']}"
                         f"  resident={row['resident_bytes']}")
            self.emit(line)

    def cache_command(self, action: str) -> None:
        if action == "clear":
            self.db.plan_cache.clear()
            self.emit("plan cache cleared")
            return
        if action != "stats":
            self.emit(f"unknown cache action {action!r} "
                      "(expected stats or clear)")
            return
        plan = self.db.plan_cache.stats()
        self.emit(f"plan cache: entries={plan['entries']}"
                  f"/{plan['max_entries']} hits={plan['hits']} "
                  f"misses={plan['misses']} "
                  f"evictions={plan['evictions']}")

    def run_query(self, text: str) -> None:
        start = time.perf_counter()
        try:
            result = self.db.query(text, options=self.options)
        except ReproError as error:
            self.emit(f"error: {error}")
            return
        elapsed = time.perf_counter() - start
        for line in result.serialize().splitlines():
            self.emit(line)
        summary = f"({len(result)} item(s)"
        if self.timing:
            summary += f", {elapsed:.3f}s"
        self.emit(summary + ")")

    # -- dispatch ---------------------------------------------------------------

    def handle(self, line: str) -> None:
        line = line.strip()
        if not line:
            return
        if not line.startswith("\\"):
            self.run_query(line)
            return
        parts = line[1:].split()
        command, args = parts[0], parts[1:]
        try:
            if command == "quit" or command == "q":
                self.done = True
            elif command == "help":
                self.emit(HELP)
            elif command == "load" and args:
                self.load_document(*args[:2])
            elif command == "blob" and len(args) == 2:
                self.load_blob(args[0], args[1])
            elif command == "docs":
                self.list_docs()
            elif command in ("strategy", "workers", "executor") and args:
                self.set_option(command, command, args[0])
            elif command == "kernel" and len(args) == 2:
                self.set_kernel(args[1], family=args[0])
            elif command == "kernel" and args:
                self.set_kernel(args[0])
            elif command == "save-store" and args:
                self.save_store(args[0])
            elif command == "store" and args and args[0] == "stats":
                self.store_stats()
            elif command == "cache" and args:
                self.cache_command(args[0])
            elif command == "timing" and args:
                self.timing = args[0] == "on"
                self.emit(f"timing = {'on' if self.timing else 'off'}")
            else:
                self.emit(f"unknown command \\{command} (try \\help)")
        except (OSError, ReproError) as error:
            self.emit(f"error: {error}")


def run_serve(session: CliSession, *, host: str, port: int,
              timeout: float | None,
              store_path: str | None = None) -> int:
    """Serve the session's database over TCP until SIGINT or SIGTERM;
    either stops the server and exits normally, so the exit hooks run
    (the default SIGTERM action would orphan the process pool)."""
    import asyncio
    import signal

    from repro.serve import QueryServer, serve

    server = QueryServer(db=session.db, default_timeout=timeout,
                         **asdict(session.options))
    # The session already opened the store; hand the path over so a
    # warmed process pool can map it in every worker.
    server.store_path = store_path

    async def _serve_forever() -> None:
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel)
        tcp = await serve(server, host=host, port=port)
        bound = tcp.sockets[0].getsockname()
        print(f"serving on {bound[0]}:{bound[1]}", flush=True)
        try:
            await tcp.serve_forever()
        finally:
            tcp.close()
            await tcp.wait_closed()
            await server.stop()

    try:
        asyncio.run(_serve_forever())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("shutting down", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="StandOff XQuery shell (Alink et al., 2006 repro)")
    parser.add_argument("--load", action="append", default=[],
                        metavar="PATH",
                        help="XML file to load (uri = file name); "
                             "repeatable")
    parser.add_argument("--blob", action="append", default=[],
                        metavar="URI=PATH", help="BLOB to register")
    parser.add_argument("--query", "-e", default=None,
                        help="run one query and exit")
    parser.add_argument("--strategy", metavar="udf|basic|ll",
                        help="evaluation strategy (default basic)")
    parser.add_argument("--kernel", metavar="ll|vectorized|auto",
                        help="StandOff join kernel (vectorized = batched "
                             "NumPy fast path; auto = per-join choice by "
                             "input size and overlap density)")
    parser.add_argument("--staircase-kernel", metavar="ll|vectorized|auto",
                        help="Staircase axis kernel for the tree axes "
                             "under strategy=ll (default auto)")
    parser.add_argument("--workers", metavar="N",
                        help="shard batched joins across N worker "
                             "threads ('serial' = deterministic "
                             "single-shard reference; default from "
                             "REPRO_WORKERS)")
    parser.add_argument("--executor", metavar="thread|process",
                        help="where sharded joins run: 'thread' (shared "
                             "pool, the default) or "
                             "'process' (store-backed jobs fan out to "
                             "worker processes mapping the same store "
                             "file)")
    parser.add_argument("--storage", default=DEFAULT_STORAGE_BACKEND,
                        choices=list(SUPPORTED_STORAGE_BACKENDS),
                        help="storage backend for loaded documents: "
                             "'memory' (default from REPRO_STORAGE) or "
                             "'mmap' (spill columns to a mapped store "
                             "file)")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="open a saved store file (written by "
                             "\\save-store) instead of parsing XML — "
                             "O(1) cold start off the mapped columns; "
                             "nodes are built from them on demand")
    parser.add_argument("--shard-min-rows", type=int, metavar="ROWS",
                        help="minimum context rows per shard before a "
                             "join fans out (default from "
                             "REPRO_SHARD_MIN_ROWS)")
    parser.add_argument("--plan-cache-size", type=int, default=None,
                        metavar="N",
                        help="compiled-plan LRU capacity (0 disables; "
                             "default from REPRO_PLAN_CACHE)")
    parser.add_argument("--serve", action="store_true",
                        help="serve concurrent queries over TCP "
                             "(JSON lines) instead of the REPL")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address for --serve "
                             "(default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0, metavar="PORT",
                        help="bind port for --serve (0 = pick a free "
                             "port and print it)")
    parser.add_argument("--serve-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-query timeout for --serve (default "
                             f"{DEFAULT_SERVE_TIMEOUT:g}; 0 disables)")
    args = parser.parse_args(argv)

    knobs = {f.name: getattr(args, f.name) for f in fields(ExecOptions)
             if getattr(args, f.name, None) is not None}
    try:
        options = ExecOptions(**knobs)
    except ValueError as error:
        parser.error(str(error))

    if args.plan_cache_size is not None and args.plan_cache_size < 0:
        parser.error("--plan-cache-size must be >= 0 "
                     f"(got {args.plan_cache_size})")

    try:
        session = CliSession(plan_cache_size=args.plan_cache_size,
                             storage_backend=args.storage,
                             store_path=args.store)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    session.options = options
    try:
        for path in args.load:
            session.load_document(Path(path).name, path)
        for spec in args.blob:
            uri, _sep, path = spec.partition("=")
            if not path:
                parser.error(f"--blob expects URI=PATH, got {spec!r}")
            session.load_blob(uri, path)
    except (OSError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    if args.serve:
        return run_serve(session, host=args.host, port=args.port,
                         timeout=args.serve_timeout,
                         store_path=args.store)

    if args.query is not None:
        session.run_query(args.query)
        return 0

    session.emit("StandOff XQuery shell — \\help for commands")
    while not session.done:
        try:
            line = input(PROMPT)
        except EOFError:
            break
        except KeyboardInterrupt:
            session.emit("")
            continue
        session.handle(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
