# sgblint: module=repro.engine.fixture_rwlock_good
"""SGB007 true negatives on a shared/exclusive lock: reads in either
mode, writes exclusive, a private reader entered only under the shared
mode, and a write after a helper whose mode is not known statically."""

from repro.engine.rwlock import RWLock


class Catalog:
    def __init__(self):
        self._lock = RWLock()
        self._tables = {}

    def get(self, name):
        with self._lock.shared():
            return self._lookup(name)

    def _lookup(self, name):
        # Only ever called with _lock held shared: a read is fine.
        return self._tables.get(name)

    def names(self):
        self._lock.acquire_shared()
        try:
            return sorted(self._tables)
        finally:
            self._lock.release_shared()

    def create(self, name, table):
        with self._lock.exclusive():
            self._tables[name] = table

    def drop(self, name):
        self._take(shared=False)
        try:
            del self._tables[name]
        finally:
            self._lock.release()

    def _take(self, shared):
        if shared:
            self._lock.acquire_shared()
        else:
            self._lock.acquire()
