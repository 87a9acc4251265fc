# sgblint: module=repro.engine.fixture_rwlock_bad
"""SGB007 true positives on a shared/exclusive lock: a straggler read
with no mode held, and a write made under the shared mode."""

from repro.engine.rwlock import RWLock


class Catalog:
    """Four of five ``_tables`` accesses hold ``_lock`` in some mode, so
    the guard is inferred; the fifth is flagged, and so is the write
    that holds only the shared mode."""

    def __init__(self):
        self._lock = RWLock()
        self._tables = {}

    def get(self, name):
        with self._lock.shared():
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

    def peek(self, name):
        return self._tables.get(name)  # unguarded read

    def put_quietly(self, name, table):
        with self._lock.shared():
            self._tables[name] = table  # write under the shared mode
