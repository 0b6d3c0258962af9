"""The REPRO_LOCKCHECK dynamic sanitizer (repro.exec.lockcheck).

Unit tests drive private :class:`LockGraph` instances so the
process-global graph (shared with whatever the rest of the suite
acquired) stays out of the assertions; the end-to-end test re-executes
the real store code in a subprocess with ``REPRO_LOCKCHECK=1``.
"""

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.exec import lockcheck
from repro.exec.lockcheck import (
    CheckedLock,
    CheckedRLock,
    LockDisciplineError,
    LockGraph,
    LockOrderError,
    assert_locked,
    audit_lazy_stores,
)

ROOT = Path(__file__).resolve().parents[1]


class TestLockGraph:
    def test_consistent_order_accumulates_edges(self):
        graph = LockGraph()
        a, b = CheckedLock("A", graph), CheckedLock("B", graph)
        for _ in range(3):
            with a:
                with b:
                    pass
        assert graph.edges() == {"A": {"B"}}

    def test_direct_cycle_detected(self):
        graph = LockGraph()
        a, b = CheckedLock("A", graph), CheckedLock("B", graph)
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderError):
                a.acquire()

    def test_transitive_cycle_reports_the_recorded_order(self):
        graph = LockGraph()
        a = CheckedLock("A", graph)
        b = CheckedLock("B", graph)
        c = CheckedLock("C", graph)
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with pytest.raises(LockOrderError) as exc:
                a.acquire()
        assert "A" in str(exc.value) and "C" in str(exc.value)

    def test_two_instances_of_one_lock_class_form_a_self_edge(self):
        # Two PlanCache._lock-style instances are one lock *class*:
        # nesting them is the same deadlock as nesting one of them.
        graph = LockGraph()
        first = CheckedLock("PlanCache._lock", graph)
        second = CheckedLock("PlanCache._lock", graph)
        with first:
            with pytest.raises(LockOrderError):
                second.acquire()

    def test_failed_acquire_leaves_stack_clean(self):
        graph = LockGraph()
        a, b = CheckedLock("A", graph), CheckedLock("B", graph)
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderError):
                a.acquire()
        # b was released normally despite the refused acquisition ...
        assert not b.held_by_current_thread()
        # ... and the refused lock was never pushed as held.
        assert not a.held_by_current_thread()


class TestCheckedLocks:
    def test_non_reentrant_reacquire_reports_self_deadlock(self):
        a = CheckedLock("A", LockGraph())
        with a:
            with pytest.raises(LockOrderError):
                a.acquire()

    def test_rlock_reentry_is_not_an_edge(self):
        graph = LockGraph()
        a = CheckedRLock("StoredDocument._build_lock", graph)
        with a:
            with a:
                assert a.held_by_current_thread()
        assert not a.held_by_current_thread()
        assert graph.edges() == {}

    def test_assert_locked(self):
        a = CheckedLock("A", LockGraph())
        with pytest.raises(LockDisciplineError):
            assert_locked(a, "Thing._attr")
        with a:
            assert_locked(a, "Thing._attr")     # held: no error
        # Plain locks carry no ownership info: always a no-op.
        assert_locked(threading.Lock(), "Thing._attr")
        assert_locked(None, "Thing._attr")

    def test_assert_locked_is_per_thread(self):
        a = CheckedLock("A", LockGraph())
        errors = []

        def probe():
            try:
                assert_locked(a, "Thing._attr")
            except LockDisciplineError as error:
                errors.append(error)

        with a:
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert len(errors) == 1


class TestAuditLazyStores:
    def make_class(self):
        graph = LockGraph()

        @audit_lazy_stores(("_shredded",))
        class Doc:
            def __init__(self):
                self._build_lock = CheckedRLock("Doc._build_lock", graph)
                self._shredded = None     # construction store: exempt

        return Doc

    def test_unguarded_store_raises(self, monkeypatch):
        monkeypatch.setattr(lockcheck, "ENABLED", True)
        doc = self.make_class()()
        with pytest.raises(LockDisciplineError):
            doc._shredded = object()

    def test_guarded_store_and_unaudited_attrs_pass(self, monkeypatch):
        monkeypatch.setattr(lockcheck, "ENABLED", True)
        doc = self.make_class()()
        with doc._build_lock:
            doc._shredded = object()
        doc.unaudited = 1                 # not a lazy-build attr

    def test_subclass_inherits_auditing(self, monkeypatch):
        monkeypatch.setattr(lockcheck, "ENABLED", True)
        Doc = self.make_class()

        class Sub(Doc):
            pass

        sub = Sub()
        with pytest.raises(LockDisciplineError):
            sub._shredded = object()

    def test_disabled_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(lockcheck, "ENABLED", False)

        @audit_lazy_stores(("_x",))
        class Plain:
            def __init__(self):
                self._x = None

        plain = Plain()
        plain._x = 1                      # no lock anywhere: fine
        assert isinstance(lockcheck.new_lock("n"),
                          type(threading.Lock()))


class TestFactories:
    def test_enabled_factories_return_checked_locks(self, monkeypatch):
        monkeypatch.setattr(lockcheck, "ENABLED", True)
        assert isinstance(lockcheck.new_lock("a"), CheckedLock)
        assert isinstance(lockcheck.new_rlock("b"), CheckedRLock)


END_TO_END = textwrap.dedent("""
    from repro.xmldb.parser import parse_document
    from repro.xmldb.store import StoredDocument
    from repro.exec.lockcheck import LockDisciplineError

    doc = parse_document("<a><b/></a>", uri="d.xml", doc_id=1)
    stored = StoredDocument(doc)
    stored.shredded                # lazy build under the lock: fine
    stored.region_index()          # dict-valued store under the lock
    try:
        stored._shredded = None    # armed store, no lock held
    except LockDisciplineError:
        print("CAUGHT")
    else:
        print("MISSED")
    with stored._build_lock:
        stored._shredded = None    # same store under the lock
    print("GUARDED-OK")
""")


UPDATE_CYCLE = textwrap.dedent("""
    from repro import Database
    from repro.exec.lockcheck import LockDisciplineError

    XML = ('<v><music start="0" end="31"/>'
           '<shot id="a" start="0" end="8"/></v>')
    READ = 'count(doc("v.xml")//music/select-narrow::shot)'
    for backend in ("memory", "mmap"):
        db = Database(storage_backend=backend)
        db.add_document("v.xml", XML)
        assert db.query(READ).serialize() == "1"
        db.insert_nodes("v.xml", 'doc("v.xml")/v',
                        '<shot id="b" start="9" end="20"/>')
        assert db.query(READ).serialize() == "2"
        db.delete_nodes("v.xml", 'doc("v.xml")//shot[@id = "a"]')
        assert db.query(READ).serialize() == "1"
        stored = db.document("v.xml")
        for attr in ("_region_indexes", "_unspilled", "_spill_path"):
            try:
                setattr(stored, attr, getattr(stored, attr))
            except LockDisciplineError:
                print("CAUGHT", attr)
    print("CYCLE-OK")
""")


class TestEnvMode:
    def test_lockcheck_env_catches_unguarded_store(self):
        env = dict(os.environ)
        env["REPRO_LOCKCHECK"] = "1"
        env["PYTHONPATH"] = str(ROOT / "src")
        proc = subprocess.run([sys.executable, "-c", END_TO_END],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "CAUGHT" in proc.stdout
        assert "GUARDED-OK" in proc.stdout

    def test_splicing_updates_hold_the_build_lock(self):
        """insert -> read -> delete -> read on a StandOff document, in
        memory and spilled: every structure a splice publishes is stored
        under the build lock, and an unguarded store is caught."""
        env = dict(os.environ)
        env["REPRO_LOCKCHECK"] = "1"
        env["PYTHONPATH"] = str(ROOT / "src")
        proc = subprocess.run([sys.executable, "-c", UPDATE_CYCLE],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "CYCLE-OK" in proc.stdout
        for attr in ("_region_indexes", "_unspilled", "_spill_path"):
            assert proc.stdout.count(f"CAUGHT {attr}") == 2, proc.stdout

    def test_disabled_by_default(self):
        env = dict(os.environ)
        env.pop("REPRO_LOCKCHECK", None)
        env["PYTHONPATH"] = str(ROOT / "src")
        proc = subprocess.run([sys.executable, "-c", END_TO_END],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        # Plain locks: the unguarded store goes unnoticed (zero-cost
        # default), the guarded one is equally fine.
        assert "MISSED" in proc.stdout
        assert "GUARDED-OK" in proc.stdout
