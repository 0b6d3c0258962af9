"""The five workloads of the end-to-end benchmark.

Each workload builds its inputs from the seed, warms up, computes the
expected answer of every op with ``strategy="basic"`` (the oracle), and
then serves whole *cycles* of ops in a closed loop: a cycle is a fixed
multiset of templates in a seed-shuffled order, so every run times the
same mix however many cycles fit into the run.

The weights put ranks 0.5 and 0.9 of the op-latency distribution inside
one template's cluster (README, "Percentiles"); the workloads drive the
program through its public API only.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import resource
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers
from layers import BASIC, LL
from repro.errors import ReproError
from repro.storage import open_store, save_store
from repro.xmark import (
    EXTENDED_PLAIN,
    EXTENDED_STANDOFF,
    PLAIN,
    STANDOFF,
    generate_xmark,
)
from repro.xquery.engine import Database
from tracing import NULL

SRC = Path(__file__).resolve().parents[2] / "src"

URI = "xmark.xml"
SO_URI = "so.xml"
DOC = f'doc("{URI}")'
SO = f'doc("{SO_URI}")'

#: The compiled-plan LRU size every engine of the benchmark runs with
#: (the program's documented default, pinned).
PLAN_CACHE = 256


@dataclass(frozen=True)
class Step:
    """A template's dominant step, for the kernel probes: *context* is
    the query whose result is the step's context, *axis* a tree axis
    (``kind="staircase"``) or a StandOff operator (``"standoff"``)."""

    kind: str
    uri: str
    context: str
    axis: str
    name: str | None


@dataclass(frozen=True)
class Template:
    name: str
    text: str
    weight: int = 1
    steps: tuple[Step, ...] = ()


@dataclass(frozen=True)
class Op:
    template: str
    text: str = ""
    expect: str | None = None


def tree(context: str, axis: str, name: str | None) -> Step:
    return Step("staircase", URI, DOC + context, axis, name)


def region(context: str, axis: str, name: str) -> Step:
    return Step("standoff", SO_URI, SO + context, axis, name)


ALL_NODES = "/descendant-or-self::node()"
#: ``//site`` on the StandOff document — the tree step every StandOff
#: template starts with.
SO_SITE = Step("staircase", SO_URI, SO + ALL_NODES, "child", "site")

POINT = DOC + '//open_auction[@id="{id}"]/bidder[1]'
SCAN = (f'for $a in {DOC}//open_auction '
        'return count($a/descendant::bidder)')
POINT_STEP = tree(ALL_NODES, "child", "open_auction")
SCAN_STEP = tree("//open_auction", "descendant", "bidder")


def new_database() -> Database:
    return Database(plan_cache_size=PLAN_CACHE, storage_backend="memory")


def _plain(qid: str) -> str:
    return (PLAIN.get(qid) or EXTENDED_PLAIN[qid]).format(uri=URI)


def _standoff(qid: str) -> str:
    return (STANDOFF.get(qid) or EXTENDED_STANDOFF[qid]).format(uri=SO_URI)


class Workload:
    """One client, one in-process engine; subclasses fill in the rest."""

    name = ""
    #: XMark scale of a full run (``--smoke`` overrides it).
    scale = 1.0
    #: The fixed templates, if the workload's texts do not depend on
    #: the seed; their weights make the cycle.
    TEMPLATES: list[Template] = []
    #: Whether set-up standoffizes the document (probed in the traced
    #: pass).
    standoff = False

    def __init__(self, seed: int, scale: float, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.rng = random.Random(seed)
        self.rec = NULL
        self.db: Database | None = None
        self.templates = self.TEMPLATES
        self.cycle = [Op(t.name, t.text) for t in self.templates
                      for _ in range(t.weight)]
        self.rng.shuffle(self.cycle)
        self.expected: dict[str, str] = {}
        #: plan-cache (hits, misses) of the last :meth:`run`
        self.cache_delta = (0, 0)

    # -- lifecycle --------------------------------------------------------

    def setup(self) -> None:
        """Everything before the first timed op, warm-up included."""
        raise NotImplementedError

    def oracle(self) -> None:
        """Expected serialisation of every template, under ``basic``."""
        for template in self.templates:
            self.expected[template.name] = self.db.query(
                template.text, **BASIC).serialize()

    def close(self) -> None:
        """Stop what :meth:`setup` started and delete what it wrote."""

    # -- helpers ----------------------------------------------------------

    def generate(self) -> str:
        with self.rec.span("xmark.generate"):
            return generate_xmark(self.scale, seed=self.seed)

    def warm_up(self) -> None:
        for template in self.templates:
            self.execute(Op(template.name, template.text))

    # -- the timed phase --------------------------------------------------

    def execute(self, op: Op) -> tuple[float, bool]:
        """Run one op; returns (latency seconds, answer correct)."""
        start = time.perf_counter()
        with self.rec.span("xquery.eval"):
            result = self.db.query(op.text, **LL)
        with self.rec.span("xmldb.serialize"):
            out = result.serialize()
        latency = time.perf_counter() - start
        return latency, out == self.expected.get(op.template, out)

    def next_cycle(self) -> list[Op]:
        return self.cycle

    def cpu_seconds(self) -> float:
        """User + system CPU of the process(es) doing the work."""
        return time.process_time()

    def plan_cache_counts(self) -> tuple[int, int]:
        stats = self.db.plan_cache.stats()
        return stats["hits"], stats["misses"]

    def run(self, seconds: float) -> tuple[list, list]:
        """Closed loop, one client: whole cycles until *seconds* have
        passed.  Returns the samples ``[(template, latency, ok)]`` and
        one round ``(ops, wall seconds, CPU seconds)`` per cycle, in
        order: the runner computes every time metric cycle by cycle."""
        samples, rounds = [], []
        hits, misses = self.plan_cache_counts()
        numbers = itertools.count()
        deadline = time.perf_counter() + seconds
        while True:
            start, cpu = time.perf_counter(), self.cpu_seconds()
            ops = self.next_cycle()
            for op in ops:
                began = time.perf_counter()
                with self.rec.span("op", op=next(numbers),
                                   template=op.template):
                    try:
                        latency, ok = self.execute(op)
                    except ReproError:
                        latency, ok = time.perf_counter() - began, False
                samples.append((op.template, latency, ok))
            rounds.append((len(ops), time.perf_counter() - start,
                           self.cpu_seconds() - cpu))
            if time.perf_counter() >= deadline:
                break
        after = self.plan_cache_counts()
        self.cache_delta = (after[0] - hits, after[1] - misses)
        return samples, rounds

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- the traced pass ------------------------------------------------

    def layers(self) -> dict:
        """Per-layer metrics; called after a traced :meth:`run`."""
        out = layers.span_layers(self.rec)
        hits, misses = self.cache_delta
        if hits + misses:
            out["xquery.plan_cache_hit_ratio"] = hits / (hits + misses)
        out.update(layers.template_layers(self.rec, self.db,
                                          self.templates))
        out.update(layers.kernel_layers(self.rec, self.db, self.templates,
                                        self.eval_ms()))
        out.update(layers.build_layers(self.rec, self.seed, self.scale,
                                       standoff=self.standoff))
        return out

    def eval_ms(self) -> dict[str, float]:
        """Median ``xquery.eval`` span of each template, in ms — the
        base of the kernel shares."""
        return {name: 1e3 * statistics.median(seconds) for name, seconds
                in self.rec.durations("xquery.eval").items()}


# ----------------------------------------------------------------------
# 1. xmark_tree
# ----------------------------------------------------------------------

class XmarkTree(Workload):
    """Plain XMark over the in-memory store: the tree-axis path."""

    name = "xmark_tree"

    #: 15 ops a cycle.  By latency: the six cheap templates fill ranks
    #: 0-0.4, ``point`` 0.4-0.6 (holds p50), ``q20`` 0.8-0.93 (p90).
    TEMPLATES = [
        Template("q1", _plain("q1"), 1,
                 (tree("/site/people", "child", "person"),)),
        Template("q2", _plain("q2"), 1,
                 (tree("/site/open_auctions/open_auction", "child",
                       "bidder"),)),
        Template("q3", _plain("q3"), 1,
                 (tree("/site/open_auctions/open_auction", "child",
                       "bidder"),)),
        Template("q5", _plain("q5"), 1,
                 (tree("/site/closed_auctions/closed_auction", "child",
                       "price"),)),
        Template("q6", _plain("q6"), 1,
                 (tree("//site/regions" + ALL_NODES, "child", "item"),)),
        Template("q7", _plain("q7"), 1,
                 (tree("/site" + ALL_NODES, "child", "description"),)),
        Template("q13", _plain("q13"), 1,
                 (tree("/site/regions/australia/item", "child",
                       "description"),)),
        Template("q14", _plain("q14"), 1,
                 (tree(ALL_NODES, "child", "item"),)),
        Template("q17", _plain("q17"), 1,
                 (tree("/site/people/person", "child", "homepage"),)),
        Template("q20", _plain("q20"), 2,
                 (tree(ALL_NODES, "child", "profile"),)),
        Template("point", POINT.format(id="open_auction7"), 3,
                 (POINT_STEP,)),
        Template("scan", SCAN, 1, (SCAN_STEP,)),
    ]

    def setup(self) -> None:
        xml = self.generate()
        self.db = new_database()
        with self.rec.span("xmldb.load"):
            self.db.add_document(URI, xml)
        self.warm_up()


# ----------------------------------------------------------------------
# 2. standoff_joins
# ----------------------------------------------------------------------

class StandoffJoins(Workload):
    """StandOff XMark over the standoffized, permuted document."""

    name = "standoff_joins"
    standoff = True

    _AUCTION = ("//site/select-narrow::open_auctions"
                "/select-narrow::open_auction")
    TEMPLATES = [
        Template("q1", _standoff("q1"), 1,
                 (SO_SITE, region("//site/select-narrow::people",
                                  "select-narrow", "person"))),
        Template("q2", _standoff("q2"), 1,
                 (SO_SITE, region(_AUCTION, "select-narrow", "bidder"))),
        Template("q5", _standoff("q5"), 1,
                 (SO_SITE, region("//site/select-narrow::closed_auctions"
                                  "/select-narrow::closed_auction",
                                  "select-narrow", "price"))),
        Template("q6", _standoff("q6"), 1,
                 (SO_SITE, region("//site/select-narrow::regions",
                                  "select-narrow", "item"))),
        Template("q7", _standoff("q7"), 1,
                 (SO_SITE, region("//site", "select-narrow",
                                  "description"))),
        Template("q13", _standoff("q13"), 1,
                 (SO_SITE, region("//site/select-narrow::regions"
                                  "/select-narrow::australia"
                                  "/select-narrow::item",
                                  "select-narrow", "description"))),
        Template("q17", _standoff("q17"), 1,
                 (SO_SITE, region("//site/select-narrow::people"
                                  "/select-narrow::person",
                                  "select-narrow", "homepage"))),
        Template("wide",
                 f'for $a in {SO}//open_auction '
                 'return count($a/select-wide::bidder)', 1,
                 (Step("staircase", SO_URI, SO + ALL_NODES, "child",
                       "open_auction"),
                  region("//open_auction", "select-wide", "bidder"))),
        Template("reject",
                 f'count({SO}//site/select-narrow::open_auctions'
                 '/reject-narrow::annotation)', 1,
                 (SO_SITE, region("//site/select-narrow::open_auctions",
                                  "reject-narrow", "annotation"))),
    ]

    def setup(self) -> None:
        xml = self.generate()
        self.db = new_database()
        with self.rec.span("xmldb.load"):
            self.db.add_document_standoff(SO_URI, xml, permute=True)
        self.warm_up()

    def layers(self) -> dict:
        out = super().layers()
        out.update(layers.region_index_layers(self.rec, self.db, SO_URI))
        return out


# ----------------------------------------------------------------------
# 3. serve_mix
# ----------------------------------------------------------------------

class Connection:
    """One JSON-lines TCP connection with one request in flight."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.file = self.sock.makefile("rwb")

    def request(self, payload: dict) -> dict:
        self.file.write(json.dumps(payload).encode() + b"\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.file.close()
        self.sock.close()


class ServeMix(Workload):
    """A saved store served by a ``repro.cli --serve`` subprocess to one
    closed-loop TCP client, 4 point lookups : 1 scan, the lookups'
    ``@id`` drawn Zipf-like over every auction id.

    One client, not ``min(2, nproc)``: the server evaluates under the
    GIL, and on the 2-vCPU measurement box a second client lowered the
    throughput (14 against 16.7 ops/s) and made a cycle's latencies
    swing by +-25 % with the interleaving - the scheduler, not the
    program (README, "serve_mix has one client")."""

    name = "serve_mix"
    DRAWS = 4096

    def __init__(self, seed: int, scale: float, workdir: Path):
        super().__init__(seed, scale, workdir)
        self.path = str(workdir / "serve_mix.repro")
        self.server: subprocess.Popen | None = None
        self.connection: Connection | None = None
        self.draws: list[str] = []
        self.position = 0
        self.sent: list[str] = []
        self.wall = 0.0
        self.input_bytes = 0

    def setup(self) -> None:
        xml = self.generate()
        self.input_bytes = len(xml.encode())
        self.db = new_database()
        with self.rec.span("xmldb.load"):
            self.db.add_document(URI, xml)
        ids = self.db.query(
            f'for $a in {DOC}//open_auction return string($a/@id)', **LL)
        self.rng.shuffle(ids)
        weights = [1.0 / rank for rank in range(1, len(ids) + 1)]
        self.draws = self.rng.choices(ids, weights, k=self.DRAWS)
        self.templates = [
            Template("point", POINT.format(id=ids[0]), 4, (POINT_STEP,)),
            Template("scan", SCAN, 1, (SCAN_STEP,)),
        ]
        with self.rec.span("storage.save"):
            save_store(self.path, self.db)
        with self.rec.span("serve.start"):
            self.start_server()
        for template in self.templates:
            self.connection.request({"query": template.text})

    def start_server(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "--store", self.path,
             "--strategy", "ll", "--workers", "serial",
             "--executor", "thread", "--plan-cache-size", str(PLAN_CACHE),
             "--serve", "--port", "0"],
            env=env, stdout=subprocess.PIPE, text=True)
        line = self.server.stdout.readline()
        if not line.startswith("serving on "):
            self.close()
            raise RuntimeError(f"server did not start: {line!r}")
        self.connection = Connection(int(line.rsplit(":", 1)[1]))

    def oracle(self) -> None:
        """Every id's lookup answer from two ``basic`` queries: the
        wrapped first bidders, aligned with the ids."""
        ids = self.db.query(
            f'for $a in {DOC}//open_auction return string($a/@id)', **BASIC)
        wrapped = self.db.query(
            f'for $a in {DOC}//open_auction return <r>{{$a/bidder[1]}}</r>',
            **BASIC)
        for auction, item in zip(ids, wrapped, strict=True):
            text = item.serialize()
            self.expected[auction] = (
                "" if text == "<r/>" else text[len("<r>"):-len("</r>")])
        self.expected["scan"] = self.db.query(SCAN, **BASIC).serialize()

    def close(self) -> None:
        """Interrupt the server and wait until it has ended."""
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.server is not None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None
        Path(self.path).unlink(missing_ok=True)

    # -- the timed phase --------------------------------------------------

    def next_cycle(self) -> list[Op]:
        """A scan and the next four lookups of the draw."""
        ops = [Op("scan", SCAN, self.expected.get("scan"))]
        for _ in range(4):
            auction = self.draws[self.position % len(self.draws)]
            self.position += 1
            ops.append(Op("point", POINT.format(id=auction),
                          self.expected.get(auction)))
        return ops

    def execute(self, op: Op) -> tuple[float, bool]:
        with self.rec.span("serve.request") as span:
            start = time.perf_counter()
            reply = self.connection.request({"query": op.text})
            end = time.perf_counter()
        self.sent.append(op.text)
        if span is not None and reply.get("ok"):
            self.rec.add("serve.evaluate",
                         end - reply["elapsed_ms"] / 1e3, end, parent=span)
        ok = bool(reply.get("ok")) and op.expect in (None,
                                                      reply.get("result"))
        return end - start, ok

    def run(self, seconds: float) -> tuple[list, list]:
        self.sent = []
        start = time.perf_counter()
        try:
            return super().run(seconds)
        finally:
            self.wall = time.perf_counter() - start

    # -- resources ----------------------------------------------------------

    def _proc(self, name: str) -> str:
        return Path(f"/proc/{self.server.pid}/{name}").read_text()

    def cpu_seconds(self) -> float:
        """User + system CPU of this process and of the server."""
        fields = self._proc("stat").rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])       # utime + stime
        return time.process_time() + ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in self._proc("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    # -- the traced pass ------------------------------------------------

    def layers(self) -> dict:
        rec = self.rec
        connection = self.connection
        stats = connection.request({"op": "stats"})["stats"]
        # what the client waited beyond the server's own evaluation:
        # the wire, admission and the dispatch queue
        waits = sorted(
            1e3 * ((op["end"] - op["start"]) - (span["end"] - span["start"]))
            for span in rec.spans if span["name"] == "serve.evaluate"
            for op in [rec.spans[span["parent"]]])
        out = {
            "serve.queue_wait_p50_ms": waits[len(waits) // 2],
            "serve.queue_wait_p90_ms": waits[int(len(waits) * 0.9)],
            "serve.heavy_share": stats["heavy"] / stats["submitted"],
            "serve.max_in_flight": stats["max_in_flight"],
            "serve.timeouts": stats["timeouts"],
            "serve.errors": stats["errors"],
        }
        ping_s, _ = layers.timed(rec, "serve.tcp_ping",
                                 lambda: connection.request({"op": "ping"}),
                                 reps=50)
        out["serve.tcp_ping_ms"] = ping_s * 1e3

        # the same ops, one after another, in this process
        local = open_store(self.path, plan_cache_size=PLAN_CACHE)
        for template in self.templates:
            local.query(template.text, **LL).serialize()
        hits, misses = (local.plan_cache.stats()[k]
                        for k in ("hits", "misses"))
        start = time.perf_counter()
        for number, text in enumerate(self.sent):
            template = "scan" if text == SCAN else "point"
            with rec.span("replay", op=number, template=template):
                with rec.span("xquery.eval"):
                    result = local.query(text, **LL)
                with rec.span("xmldb.serialize"):
                    result.serialize()
        serial_wall = time.perf_counter() - start
        after = local.plan_cache.stats()
        self.cache_delta = (after["hits"] - hits, after["misses"] - misses)
        out["serve.concurrent_vs_serial_ratio"] = self.wall / serial_wall

        # ten scans that cannot finish in their 50 ms: how far past the
        # deadline the reply comes, whether cancelled or completed
        cancel_s, _ = layers.timed(
            rec, "exec.cancel",
            lambda: connection.request({"query": SCAN, "timeout": 0.05}),
            reps=10)
        out["exec.cancel_overshoot_ms"] = (cancel_s - 0.05) * 1e3

        # the template and kernel probes need an engine in this process
        self.db = local
        out.update(super().layers())
        out.update(layers.dispatch_layers(rec, local))
        out.update(layers.exec_layers(rec, local, URI))
        out.update(layers.storage_layers(rec, self.path, self.input_bytes,
                                         plain_uri=URI, region_uri=None))
        return out


# ----------------------------------------------------------------------
# 4. cold_open
# ----------------------------------------------------------------------

class ColdOpen(Workload):
    """Every op opens the saved store afresh and asks it one thing."""

    name = "cold_open"
    scale = 0.25
    standoff = True

    #: 10 ops a cycle: ``q1`` is the cheapest (ranks 0-0.3), ``count``
    #: holds p50 (0.3-0.7), the StandOff ``q6`` p90 (0.7-1).
    TEMPLATES = [
        Template("q1", _plain("q1"), 3,
                 (tree("/site/people", "child", "person"),)),
        Template("count", f"count({DOC}//bidder)", 4,
                 (tree(ALL_NODES, "child", "bidder"),)),
        Template("standoff_q6", _standoff("q6"), 3,
                 (SO_SITE, region("//site/select-narrow::regions",
                                  "select-narrow", "item"))),
    ]

    def __init__(self, seed: int, scale: float, workdir: Path):
        super().__init__(seed, scale, workdir)
        self.path = str(workdir / "cold_open.repro")
        self.counts = [0, 0]
        self.input_bytes = 0

    def setup(self) -> None:
        xml = self.generate()
        self.input_bytes = 2 * len(xml.encode())      # stored twice
        self.db = new_database()
        with self.rec.span("xmldb.load"):
            self.db.add_document(URI, xml)
            self.db.add_document_standoff(SO_URI, xml, permute=True)
        with self.rec.span("storage.save"):
            save_store(self.path, self.db)
        self.warm_up()

    def close(self) -> None:
        Path(self.path).unlink(missing_ok=True)

    def execute(self, op: Op) -> tuple[float, bool]:
        start = time.perf_counter()
        with self.rec.span("storage.open"):
            db = open_store(self.path, plan_cache_size=PLAN_CACHE)
        with self.rec.span("xquery.eval"):
            result = db.query(op.text, **LL)
        with self.rec.span("xmldb.serialize"):
            out = result.serialize()
        latency = time.perf_counter() - start
        stats = db.plan_cache.stats()
        self.counts[0] += stats["hits"]
        self.counts[1] += stats["misses"]
        del db, result
        gc.collect()
        return latency, out == self.expected.get(op.template, out)

    def plan_cache_counts(self) -> tuple[int, int]:
        return self.counts[0], self.counts[1]

    def layers(self) -> dict:
        out = super().layers()
        out.update(layers.region_index_layers(self.rec, self.db, SO_URI))
        out.update(layers.storage_layers(self.rec, self.path,
                                         self.input_bytes, plain_uri=URI,
                                         region_uri=SO_URI))
        return out


# ----------------------------------------------------------------------
# 5. update_read
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One document's write/read round around a seed-chosen auction."""

    uri: str
    parent: str
    fragment: str
    victim: str
    read: str


class UpdateRead(Workload):
    """``insert -> read -> read -> delete -> read -> read`` on the plain
    document and on the StandOff document; the document ends each cycle
    as it began."""

    name = "update_read"
    standoff = True

    #: Document order of one 18-op cycle.  Two StandOff rounds to one
    #: plain round put rank 0.5 inside the StandOff writes' cluster and
    #: rank 0.9 inside the StandOff first-read-after-write cluster;
    #: alternating 1:1 leaves rank 0.5 on a cluster boundary.
    ROUNDS = ("so", "plain", "so")

    def setup(self) -> None:
        xml = self.generate()
        self.db = new_database()
        with self.rec.span("xmldb.load"):
            self.db.add_document(URI, xml)
            self.db.add_document_standoff(SO_URI, xml, permute=True)
        ids = self.db.query(
            f'for $a in {DOC}//open_auction return string($a/@id)', **LL)
        auction = self.rng.choice(ids)
        [start] = self.db.query(
            f'string({SO}//open_auction[@id="{auction}"]/@start)', **LL)
        where = f'//open_auction[@id="{auction}"]'
        marker = 'bidder[@id="e2e-probe"]'
        self.targets = {
            "plain": Target(
                URI, DOC + where,
                '<bidder id="e2e-probe"><increase>1.00</increase></bidder>',
                f"{DOC}//{marker}", f"count({DOC}{where}/bidder)"),
            "so": Target(
                SO_URI, SO + where,
                f'<bidder id="e2e-probe" start="{start}" end="{start}"/>',
                f"{SO}//{marker}",
                f"count({SO}{where}/select-narrow::bidder)"),
        }
        self.templates = [
            Template("plain.read", self.targets["plain"].read, 1,
                     (POINT_STEP,)),
            Template("so.read", self.targets["so"].read, 1,
                     (Step("staircase", SO_URI, SO + ALL_NODES, "child",
                           "open_auction"),
                      region(where, "select-narrow", "bidder"))),
        ]
        for target in self.targets.values():
            self.db.query(target.read, **LL).serialize()

    def oracle(self) -> None:
        """The arithmetic oracle: each read expects the ``basic``
        baseline count plus the writes applied so far in its round."""
        baseline = {key: int(self.db.query(target.read, **BASIC).serialize())
                    for key, target in self.targets.items()}
        self.cycle = [
            Op(f"{key}.{action}", expect=str(baseline[key] + delta))
            for key in self.ROUNDS
            for action, delta in (("insert", 1), ("read_after_write", 1),
                                  ("read_repeat", 1), ("delete", 0),
                                  ("read_after_write", 0),
                                  ("read_repeat", 0))]

    def execute(self, op: Op) -> tuple[float, bool]:
        key, action = op.template.split(".")
        target = self.targets[key]
        start = time.perf_counter()
        if action == "insert":
            with self.rec.span("xmldb.update"):
                got = self.db.insert_nodes(target.uri, target.parent,
                                           target.fragment)
            return time.perf_counter() - start, got == 1
        if action == "delete":
            with self.rec.span("xmldb.update"):
                got = self.db.delete_nodes(target.uri, target.victim)
            return time.perf_counter() - start, got == 1
        with self.rec.span("xquery.eval"):
            result = self.db.query(target.read, **LL)
        with self.rec.span("xmldb.serialize"):
            out = result.serialize()
        return time.perf_counter() - start, out == op.expect

    def eval_ms(self) -> dict[str, float]:
        # the shares are of the repeat reads: what a read costs once
        # the rebuild after the write is paid
        evals = super().eval_ms()
        return {f"{key}.read": evals[f"{key}.read_repeat"]
                for key in self.targets}

    def layers(self) -> dict:
        out = super().layers()
        out.update(layers.touch_layers(self.rec, self.db, URI))
        out.update(layers.region_index_layers(self.rec, self.db, SO_URI))
        return out


WORKLOADS = {cls.name: cls for cls in (XmarkTree, StandoffJoins, ServeMix,
                                       ColdOpen, UpdateRead)}
