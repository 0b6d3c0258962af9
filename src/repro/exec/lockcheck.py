"""Dynamic lock-discipline sanitizer (``REPRO_LOCKCHECK=1``).

The static pass (``repro.lint``, RL004) proves lazy-build stores sit
*lexically* under their build lock; this module checks the *runtime*
discipline the concurrency-era invariants actually rely on:

* **Lock ordering** — every project lock is created through
  :func:`new_lock` / :func:`new_rlock`.  With the sanitizer enabled the
  factories return checked wrappers that record, per thread, the stack
  of held locks and add a ``held -> acquired`` edge to a global graph
  keyed by lock *name* (the lock class, in lockdep terms).  An edge
  that closes a cycle — including a same-name edge from two distinct
  lock instances of one class — raises :class:`LockOrderError` at the
  acquisition that would make deadlock possible.

* **Lazy-build stores** — :func:`audit_lazy_stores` instruments a
  class (``StoredDocument``) so every post-construction assignment to
  a lazy-build attribute verifies the build lock is held by the
  current thread;
  :func:`assert_locked` guards the dict-valued stores (`
  ``_region_indexes``/``_stored``) that ``__setattr__`` cannot see.
  A store observed outside its lock raises :class:`LockDisciplineError`.

Disabled (the default), the factories return plain ``threading`` locks
and every hook is a no-op — zero overhead on hot paths.  Enabled, the
tier-1 suite runs as a fifth CI mode and must complete with zero
cycles and zero unguarded stores.
"""

from __future__ import annotations

import os
import threading
from typing import Iterator

ENABLED = os.environ.get("REPRO_LOCKCHECK", "") == "1"


class LockDisciplineError(RuntimeError):
    """A lazy-build store ran without its build lock held."""


class LockOrderError(RuntimeError):
    """An acquisition closed a cycle in the lock-order graph."""


class LockGraph:
    """The global ``held-name -> acquired-name`` edge set.

    Edges accumulate for the life of the process (lockdep-style): a
    cycle is reported even when the two conflicting acquisition orders
    never run concurrently — the interleaving that deadlocks is always
    schedulable once both orders exist.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()    # plain: guards the graph itself
        self._edges: dict[str, set[str]] = {}

    def edges(self) -> dict[str, set[str]]:
        with self._mutex:
            return {src: set(dst) for src, dst in self._edges.items()}

    def _path(self, src: str, dst: str) -> list[str] | None:
        """A path src -> ... -> dst in the edge graph, if one exists."""
        stack = [(src, [src])]
        seen = {src}
        while stack:
            node, path = stack.pop()
            if node == dst:
                return path
            for succ in self._edges.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, path + [succ]))
        return None

    def add_edge(self, held: str, acquired: str) -> None:
        """Record ``held -> acquired``; raise on a closed cycle."""
        with self._mutex:
            existing = self._edges.get(held)
            if existing is not None and acquired in existing:
                return
            cycle = self._path(acquired, held)
            if cycle is not None:
                order = " -> ".join(cycle + [acquired])
                raise LockOrderError(
                    f"lock-order cycle: acquiring {acquired!r} while "
                    f"holding {held!r}, but the reverse order "
                    f"{order} is already on record")
            self._edges.setdefault(held, set()).add(acquired)


_GRAPH = LockGraph()

_TLS = threading.local()


def _held_stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    return stack


class _CheckedLockBase:
    """Order- and ownership-checked wrapper around a threading lock."""

    _reentrant = False

    def __init__(self, name: str, graph: LockGraph | None = None):
        self.name = name
        self._graph = graph if graph is not None else _GRAPH
        self._lock = (threading.RLock() if self._reentrant
                      else threading.Lock())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"

    def held_by_current_thread(self) -> bool:
        return any(entry is self for entry in _held_stack())

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        stack = _held_stack()
        reentry = self._reentrant and self.held_by_current_thread()
        if not reentry:
            for held in stack:
                if held is self:
                    # A non-reentrant checked lock re-acquired by its
                    # owner: report the self-deadlock instead of
                    # hanging the suite.
                    raise LockOrderError(
                        f"thread re-acquired non-reentrant lock "
                        f"{self.name!r} it already holds")
                self._graph.add_edge(held.name, self.name)
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            stack.append(self)
        return acquired

    def release(self) -> None:
        stack = _held_stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is self:
                del stack[index]
                break
        self._lock.release()

    def __enter__(self) -> "_CheckedLockBase":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class CheckedLock(_CheckedLockBase):
    _reentrant = False


class CheckedRLock(_CheckedLockBase):
    _reentrant = True


def new_lock(name: str):
    """A project mutex: checked under ``REPRO_LOCKCHECK=1``, plain
    ``threading.Lock`` otherwise.  *name* identifies the lock class in
    the order graph — one name per lock role, shared by instances."""
    return CheckedLock(name) if ENABLED else threading.Lock()


def new_rlock(name: str):
    """Re-entrant variant of :func:`new_lock`."""
    return CheckedRLock(name) if ENABLED else threading.RLock()


def assert_locked(lock, what: str) -> None:
    """Fail if *lock* is a checked lock not held by this thread.

    No-op when the sanitizer is disabled (plain locks carry no
    ownership information).  Call it at lazy-build store sites that
    assignment auditing cannot see (dict-valued caches).
    """
    if isinstance(lock, _CheckedLockBase) and \
            not lock.held_by_current_thread():
        raise LockDisciplineError(
            f"lazy-build store to {what} observed outside "
            f"{lock.name!r} (thread {threading.current_thread().name})")


def audit_lazy_stores(attrs: Iterator[str], lock_attr: str = "_build_lock"):
    """Class decorator: audit post-``__init__`` stores to *attrs*.

    With the sanitizer enabled, the class's ``__init__`` is wrapped to
    arm auditing once construction finishes, and ``__setattr__`` is
    replaced so every armed store to a lazy-build attribute asserts
    *lock_attr* is held.  Subclasses inherit both (their own
    ``__init__`` runs around the armed base one, so base construction
    stays exempt).  Disabled, the class is returned untouched.
    """
    names = frozenset(attrs)

    def decorate(cls):
        if not ENABLED:
            return cls
        original_init = cls.__init__

        def __init__(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            object.__setattr__(self, "_lockcheck_armed", True)

        def __setattr__(self, name, value):
            if name in names and getattr(self, "_lockcheck_armed", False):
                assert_locked(getattr(self, lock_attr, None),
                              f"{type(self).__name__}.{name}")
            object.__setattr__(self, name, value)

        cls.__init__ = __init__
        cls.__setattr__ = __setattr__
        return cls

    return decorate

