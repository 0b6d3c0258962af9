"""RL004 near-misses: stores under the lock, __init__ defaults, an
alternate constructor filling in the object it is still building."""

import threading


class StoredThing:
    def __init__(self):
        self._shredded = None
        self._region_indexes = {}
        self._build_lock = threading.RLock()

    @classmethod
    def from_parts(cls, shredded):
        self = object.__new__(cls)
        self._shredded = shredded
        self._region_indexes = {}
        self._build_lock = threading.RLock()
        return self

    def shredded(self):
        if self._shredded is None:
            with self._build_lock:
                if self._shredded is None:
                    self._shredded = build()
        return self._shredded

    def region_index(self, config):
        with self._build_lock:
            self._region_indexes[config] = build()
        return self._region_indexes[config]


def build():
    return object()
