"""Process hygiene: nothing the program starts outlives it.

Every case runs its program in a new session (``start_new_session``),
so the session id is the child's pid and every process the child ever
spawned — pool workers, ``multiprocessing``'s resource tracker — is
still findable by that id after it was re-parented to init.  A case
passes when the program exited 0 and its session is empty within ten
seconds.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import storage
from repro.xquery.engine import Database

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

XML = "<doc>" + "".join(
    f"<s id='{i}'><w>a</w><w>b</w></s>" for i in range(60)) + "</doc>"

#: One iteration per ``s``: with ``--workers 2 --shard-min-rows 1`` the
#: plan has two shards, so the process executor really uses its pool.
MULTI_ITERATION = "for $s in doc('d.xml')//s return count($s/following::w)"


def session_survivors(sid: int, *, within: float = 10.0) -> list[str]:
    """The ``ps`` rows of the live (non-zombie) processes of session
    *sid* still there after *within* seconds (``[]``: the session
    emptied in time)."""
    deadline = time.monotonic() + within
    while True:
        rows = subprocess.run(
            ["ps", "-e", "-o", "sid=,stat=,pid=,args="],
            capture_output=True, text=True, check=True).stdout.splitlines()
        alive = [row for row in rows
                 if row.split()[0] == str(sid)
                 and not row.split()[1].startswith("Z")]
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.2)


def end_session(proc: subprocess.Popen) -> None:
    """Whatever the assertion outcome, leave nothing behind."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


@pytest.fixture
def store_path(tmp_path):
    db = Database(storage_backend="memory")
    db.add_document("d.xml", XML)
    return storage.save_store(str(tmp_path / "d.repro"), db)


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT],
                         ids=lambda signum: signum.name)
def test_signalled_server_leaves_its_session_empty(store_path, signum,
                                                   executor):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "--store", store_path,
         "--strategy", "ll", "--workers", "2", "--shard-min-rows", "1",
         "--executor", executor, "--serve", "--port", "0"],
        env=ENV, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True)
    try:
        banner = proc.stdout.readline()
        assert banner.startswith("serving on "), banner
        port = int(banner.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=30) as sock:
            wire = sock.makefile("rw")
            wire.write(json.dumps({"op": "query", "id": 1,
                                   "query": MULTI_ITERATION}) + "\n")
            wire.flush()
            reply = json.loads(wire.readline())
        assert reply["ok"] and reply["items"] == 60, reply
        proc.send_signal(signum)
        assert proc.wait(timeout=30) == 0
        assert session_survivors(proc.pid) == []
    finally:
        proc.stdout.close()
        end_session(proc)


SCRIPT = """
import sys
from repro import storage
db = storage.open_store(sys.argv[1])
result = db.query({query!r}, strategy="ll", staircase_kernel="vectorized",
                  workers=2, shard_min_rows=1, executor="process")
assert len(result) == 60, len(result)
"""


def test_process_executor_script_leaves_its_session_empty(store_path):
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT.format(query=MULTI_ITERATION),
         store_path],
        env=ENV, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        _out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err[-2000:]
        assert session_survivors(proc.pid) == []
    finally:
        end_session(proc)


def test_benchmark_invocation_leaves_its_session_empty():
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
         "--workload", "serve_mix", "--smoke", "--trace", "1"],
        env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        _out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err[-2000:]
        assert session_survivors(proc.pid) == []
    finally:
        end_session(proc)
