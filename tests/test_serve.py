"""Concurrent query serving: same answers under load, bounded lanes.

The serving layer may change *when* queries run, never what they
answer.  The fuzz test here drives the whole positional-predicate
pool through a :class:`~repro.serve.QueryServer` concurrently —
across executor ∈ {thread, process} × storage ∈ {memory, mmap} — and
demands byte-identical serializations to the serial reference.  The
rest pins the serving-specific machinery: heavy-lane admission
control, per-query timeouts (cancel tokens unwinding the shard
waits), the JSON-lines TCP protocol, per-session static contexts over
one shared plan cache, and the concurrent lazy-build paths the server
flushes out of the storage layer.

Everything runs on plain ``asyncio.run`` — no async test plugin.
"""

import asyncio
import json
import sys
import threading
import time

import pytest

from repro import storage
from repro.errors import ReproError, XQueryStaticError
from repro.serve import (
    QueryServer,
    QueryTimeout,
    estimate_pair_budget,
    serve,
)
from repro.xquery.bulk import _cast
from repro.xquery.engine import Database

from test_fuzz_differential import POSITIONAL_PREDICATES

WORKERS = 2

XML = "<doc>" + "".join(
    f"<s id='{i}' start='{i * 10}' end='{i * 10 + 9}'>"
    + "".join(f"<w start='{i * 10 + j}' end='{i * 10 + j}'>t{j}</w>"
              for j in range(5))
    + "</s>" for i in range(40)) + "</doc>"


def build(backend):
    db = Database(storage_backend=backend)
    db.add_document("d.xml", XML)
    return db


def workload():
    """One query per positional predicate plus a few serving-shaped
    extras (point lookup, standoff join, scan-over-scan)."""
    queries = [f"doc('d.xml')//s{pred}/w" for pred in
               POSITIONAL_PREDICATES]
    queries += [
        "doc('d.xml')//s[@id='7']/child::w",
        "count(doc('d.xml')//w)",
        "for $w in doc('d.xml')//w[@start < 40] "
        "return standoff:select-wide(doc('d.xml')//s, $w)",
        "for $s in doc('d.xml')//s[position() < 5] "
        "return count($s/following::w)",
    ]
    return queries


# ----------------------------------------------------------------------
# concurrency fuzz: concurrent == serial, across the executor matrix
# ----------------------------------------------------------------------

@pytest.mark.parametrize("executor,backend", [
    ("thread", "memory"),
    ("thread", "mmap"),
    ("process", "memory"),
    ("process", "mmap"),
])
def test_concurrent_equals_serial(executor, backend):
    db = build(backend)
    queries = workload()
    want = [db.query(q, strategy="ll", workers=WORKERS,
                     shard_min_rows=1, executor=executor).serialize()
            for q in queries]

    async def run():
        async with QueryServer(db=db, workers=WORKERS,
                               shard_min_rows=1, executor=executor,
                               max_concurrency=8,
                               default_timeout=0) as server:
            results = await asyncio.gather(
                *(server.query(q) for q in queries))
            assert server.stats["completed"] == len(queries)
            return [r.serialized for r in results]

    got = asyncio.run(run())
    for query, expect, actual in zip(queries, want, got):
        assert actual == expect, (executor, backend, query)


def test_interleaved_rounds_share_plan_cache():
    """Two concurrent rounds of the same workload: round two must be
    answered entirely from the compiled-plan cache."""
    db = build("memory")
    queries = workload()

    async def run():
        async with QueryServer(db=db, workers=WORKERS,
                               shard_min_rows=1,
                               default_timeout=0) as server:
            await asyncio.gather(*(server.query(q) for q in queries))
            before = db.plan_cache.stats()["misses"]
            await asyncio.gather(*(server.query(q) for q in queries))
            after = db.plan_cache.stats()["misses"]
            assert after == before

    asyncio.run(run())


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------

SLOW_SCAN = ("for $s in doc('d.xml')//s "
             "return count($s/following::w)")
POINT = "doc('d.xml')//s[@id='3']/child::w"


def test_classify_and_pair_budget():
    db = build("memory")
    nested = estimate_pair_budget(db, db.compile(SLOW_SCAN).module)
    point = estimate_pair_budget(db, db.compile(POINT).module)
    arithmetic = estimate_pair_budget(db, db.compile("1 + 1").module)
    assert arithmetic == 0
    assert 0 < point < nested

    server = QueryServer(db=db, heavy_pairs=point + 1)
    assert server.classify(POINT) == "light"
    assert server.classify(SLOW_SCAN) == "heavy"
    assert server.classify("syntax ((( error") == "light"


def test_heavy_lane_never_starves_point_lookups():
    """With every heavy slot held by a blocked scan, a point lookup
    must still be admitted and answered."""
    db = build("memory")
    release = threading.Event()
    real_query = db.query

    def gated_query(text, **kwargs):
        if text == SLOW_SCAN:
            assert release.wait(timeout=30), "test deadlock"
        return real_query(text, **kwargs)

    db.query = gated_query

    async def run():
        async with QueryServer(db=db, max_concurrency=4,
                               heavy_slots=1, heavy_pairs=1000,
                               default_timeout=0) as server:
            assert server.classify(SLOW_SCAN) == "heavy"
            assert server.classify(POINT) == "light"
            heavies = [asyncio.ensure_future(server.query(SLOW_SCAN))
                       for _ in range(3)]
            while server._heavy_in_flight < 1:
                await asyncio.sleep(0.01)
            result = await asyncio.wait_for(server.query(POINT),
                                            timeout=30)
            assert result.lane == "light"
            assert not any(h.done() for h in heavies)
            release.set()
            await asyncio.gather(*heavies)
            assert server.stats["max_heavy_in_flight"] == 1
            assert server.stats["heavy"] == 3
            assert server.stats["light"] == 1

    asyncio.run(run())


# ----------------------------------------------------------------------
# timeouts and cancellation
# ----------------------------------------------------------------------

#: Forces per-node predicate evaluation — the interpreter loop path —
#: so the timeout has to propagate through the cancellation
#: checkpoints, not just the shard-future wait loops.
SLOW_NESTED = ("for $s in doc('d.xml')//s return "
               "count($s/following::w[count(./following::w) > 2])")


def slow_db():
    words = " ".join(f"<w>w{i}</w>" for i in range(300))
    xml = "<doc>" + "".join(
        f"<s id='{i}'>{words}</s>" for i in range(30)) + "</doc>"
    db = Database()
    db.add_document("d.xml", xml)
    return db


def test_timeout_cancels_slow_query():
    db = slow_db()

    async def run():
        async with QueryServer(db=db) as server:
            start = time.monotonic()
            with pytest.raises(QueryTimeout):
                await server.query(SLOW_NESTED, timeout=0.2)
            elapsed = time.monotonic() - start
            # generous bound: the point is that it does not run for
            # the many seconds the full evaluation takes
            assert elapsed < 10.0
            assert server.stats["timeouts"] == 1
            assert server.stats["completed"] == 0

    asyncio.run(run())


def test_timeout_zero_disables():
    db = build("memory")

    async def run():
        async with QueryServer(db=db, default_timeout=0) as server:
            result = await server.query("1 + 1")
            assert result.serialized == "2"
            assert server.stats["timeouts"] == 0

    asyncio.run(run())


def test_task_cancellation_reaps_query():
    """Cancelling the awaiting task must cancel the evaluation (the
    dispatch thread unwinds) and count it, not orphan it."""
    db = slow_db()

    async def run():
        async with QueryServer(db=db, default_timeout=0) as server:
            task = asyncio.ensure_future(server.query(SLOW_NESTED))
            while not server._in_flight:
                await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert server.stats["cancelled"] == 1

    asyncio.run(run())


def test_engine_errors_surface():
    db = build("memory")

    async def run():
        async with QueryServer(db=db, default_timeout=0) as server:
            with pytest.raises(ReproError):
                await server.query("doc('missing.xml')//x")
            assert server.stats["errors"] == 1

    asyncio.run(run())


def test_missing_document_reply_names_its_code():
    db = build("memory")

    async def run():
        server = QueryServer(db=db, default_timeout=0)
        tcp = await serve(server, port=0)
        try:
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(json.dumps({
                "op": "query", "id": 1,
                "query": "doc('missing.xml')"}).encode() + b"\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
        finally:
            tcp.close()
            await tcp.wait_closed()
            await server.stop()
        assert not reply["ok"] and reply["code"] == "error", reply
        assert "err:FODC0002" in reply["error"]

    asyncio.run(run())


# ----------------------------------------------------------------------
# per-session static contexts over one shared plan cache
# ----------------------------------------------------------------------

SESSION_XML = """<a><x id="outer" b="0" e="100"/>
                    <y id="inner" b="10" e="20"/></a>"""
SESSION_QUERY = 'doc("s.xml")//x/select-narrow::y'
SESSION_OPTIONS = {"standoff-start": "b", "standoff-end": "e"}


def test_session_options_change_the_answer():
    db = Database()
    db.add_document("s.xml", SESSION_XML)
    # default static context: the b/e attributes are not recognized as
    # region bounds, so nothing qualifies
    assert db.query(SESSION_QUERY).serialize() == ""
    got = db.query(SESSION_QUERY,
                   session_options=SESSION_OPTIONS).serialize()
    assert 'id="inner"' in got
    # both plans live in the same cache under distinct fingerprints
    # (unless the cache is disabled for the run, REPRO_PLAN_CACHE=0)
    if db.plan_cache.enabled:
        assert db.plan_cache.stats()["entries"] >= 2
    for _ in range(2):
        assert db.query(SESSION_QUERY).serialize() == ""
        assert db.query(SESSION_QUERY,
                        session_options=SESSION_OPTIONS
                        ).serialize() == got


def test_prolog_wins_over_session_options():
    db = Database()
    db.add_document("s.xml", SESSION_XML)
    prolog = ('declare option standoff-start "b"\n'
              'declare option standoff-end "e"\n')
    got = db.query(prolog + SESSION_QUERY,
                   session_options={"standoff-start": "nope",
                                    "standoff-end": "nada"}).serialize()
    assert 'id="inner"' in got


def test_unknown_session_option_rejected():
    db = Database()
    db.add_document("s.xml", SESSION_XML)
    with pytest.raises(XQueryStaticError):
        db.query("1", session_options={"standoff-oops": "x"})


def test_database_level_session_options():
    db = Database(session_options=SESSION_OPTIONS)
    db.add_document("s.xml", SESSION_XML)
    assert 'id="inner"' in db.query(SESSION_QUERY).serialize()


def test_served_sessions_isolated():
    """Two sessions with different static contexts served by one
    QueryServer (one Database, one plan cache) get their own answers."""
    db = Database()
    db.add_document("s.xml", SESSION_XML)

    async def run():
        async with QueryServer(db=db, default_timeout=0) as server:
            plain, custom = await asyncio.gather(
                server.query(SESSION_QUERY),
                server.query(SESSION_QUERY,
                             session_options=SESSION_OPTIONS))
            assert plain.serialized == ""
            assert 'id="inner"' in custom.serialized

    asyncio.run(run())


# ----------------------------------------------------------------------
# the JSON-lines TCP protocol
# ----------------------------------------------------------------------

def test_tcp_protocol_roundtrip():
    db = build("memory")

    async def request(writer, reader, payload):
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())

    async def run():
        server = QueryServer(db=db, default_timeout=0)
        tcp = await serve(server, port=0)
        try:
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)

            reply = await request(writer, reader, {"op": "ping", "id": 1})
            assert reply == {"id": 1, "ok": True, "pong": True}

            reply = await request(writer, reader, {
                "op": "query", "id": 2,
                "query": "count(doc('d.xml')//w)"})
            assert reply["ok"] and reply["id"] == 2
            assert reply["result"] == "200"
            assert reply["items"] == 1
            assert reply["lane"] in ("light", "heavy")
            assert reply["elapsed_ms"] >= 0

            reply = await request(writer, reader, {
                "op": "query", "id": 3, "query": "syntax ((("})
            assert not reply["ok"] and reply["code"] == "error"

            # Too deep to parse: a syntax error, not an internal
            # RecursionError.
            reply = await request(writer, reader, {
                "op": "query", "id": 3,
                "query": "(" * 300 + "1" + ")" * 300})
            assert not reply["ok"] and reply["code"] == "error", reply
            assert "nests deeper" in reply["error"]

            reply = await request(writer, reader, {
                "op": "query", "id": 4, "query": 17})
            assert not reply["ok"] and reply["code"] == "bad-request"

            reply = await request(writer, reader, {"op": "nope", "id": 5})
            assert not reply["ok"] and reply["code"] == "bad-request"

            writer.write(b"this is not json\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert not reply["ok"] and reply["code"] == "bad-request"

            reply = await request(writer, reader, {
                "op": "query", "id": 6,
                "query": SESSION_QUERY.replace("s.xml", "d.xml"),
                "options": {"standoff-start": "start",
                            "standoff-end": "end"}})
            assert reply["ok"], reply

            reply = await request(writer, reader, {"op": "stats", "id": 7})
            assert reply["ok"]
            assert reply["stats"]["submitted"] >= 3

            writer.close()
            await writer.wait_closed()
        finally:
            tcp.close()
            await tcp.wait_closed()
            await server.stop()

    asyncio.run(run())


def test_tcp_responses_out_of_order():
    """A point lookup pipelined behind a gated scan must overtake it."""
    db = build("memory")
    release = threading.Event()
    real_query = db.query

    def gated_query(text, **kwargs):
        if text == SLOW_SCAN:
            assert release.wait(timeout=30), "test deadlock"
        return real_query(text, **kwargs)

    db.query = gated_query

    async def run():
        server = QueryServer(db=db, default_timeout=0)
        tcp = await serve(server, port=0)
        try:
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(
                json.dumps({"op": "query", "id": "slow",
                            "query": SLOW_SCAN}).encode() + b"\n"
                + json.dumps({"op": "query", "id": "fast",
                              "query": POINT}).encode() + b"\n")
            await writer.drain()
            first = json.loads(await reader.readline())
            assert first["id"] == "fast", first
            release.set()
            second = json.loads(await reader.readline())
            assert second["id"] == "slow", second
            writer.close()
            await writer.wait_closed()
        finally:
            release.set()
            tcp.close()
            await tcp.wait_closed()
            await server.stop()

    asyncio.run(run())


# ----------------------------------------------------------------------
# lifecycle regressions the server flushed out of the storage layer
# ----------------------------------------------------------------------

def test_concurrent_lazy_shred_build():
    """N threads racing the first ``shredded`` build must all see one
    finished shredding (renumber() mutates the DOM mid-build; the
    build lock makes that invisible)."""
    for backend in ("memory", "mmap"):
        db = build(backend)
        stored = db.document("d.xml")
        results = []
        barrier = threading.Barrier(8)

        def grab():
            barrier.wait()
            results.append(stored.shredded)

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(sh) for sh in results}) == 1, backend
        assert results[0].pre.size > 0


def test_concurrent_lazy_node_by_pre(tmp_path):
    """N threads racing the first ``node_by_pre`` of a store-backed
    shred must all decode against the one DOM built from its columns
    (the shred used to swap its document factory out before calling
    it, so every thread but the first found neither and raised
    ``AttributeError`` on ``None``)."""
    path = str(tmp_path / "d.repro")
    storage.save_store(path, build("memory"))
    for _round in range(5):     # a fresh, unbuilt shred each round
        stored = storage.open_store(path).document("d.xml")
        shredded = stored.shredded
        results, errors = [], []
        barrier = threading.Barrier(8)

        def grab():
            barrier.wait()
            try:
                results.append((shredded.node_by_pre(1),
                                shredded.document))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert {id(doc) for _node, doc in results} == \
            {id(stored.document)}
        assert {id(node) for node, _doc in results} == \
            {id(stored.document.node_by_pre(1))}


def test_concurrent_attribute_column_build(tmp_path):
    """N threads racing the first ``attribute_column`` and its first
    ``numbers`` view on a fresh store-backed shred must all get the one
    column and the one numeric view (both are lazy builds under a
    lock)."""
    path = str(tmp_path / "d.repro")
    storage.save_store(path, build("memory"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(5):
            shredded = storage.open_store(path).document("d.xml").shredded
            results = []
            barrier = threading.Barrier(8)

            def grab():
                barrier.wait()
                column = shredded.attribute_column("start")
                results.append((column, column.numbers(_cast)))

            threads = [threading.Thread(target=grab) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == 8
            assert len({id(column) for column, _ in results}) == 1
            assert len({id(numbers) for _, numbers in results}) == 1
            assert len(results[0][0].owners) > 0
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_store_reader_facades(tmp_path):
    """Racing ``StoreReader.stored`` must yield one facade per URI —
    the engine's node-identity checks require one DOM instance per
    stored document."""
    path = str(tmp_path / "d.repro")
    storage.save_store(path, build("memory"))
    reader = storage.StoreReader(path)
    results = []
    barrier = threading.Barrier(8)

    def grab():
        barrier.wait()
        stored = reader.stored("d.xml")
        results.append((stored, stored.document))

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len({id(s) for s, _doc in results}) == 1
    assert len({id(doc) for _s, doc in results}) == 1
