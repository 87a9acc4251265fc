"""Regression tests for statement-lock coverage on catalog reads.

SGB007 (sgblint's lock-discipline analysis) found ``table()``,
``stream_view_names()``, ``set_trace()``, and ``explain()`` reading
lock-guarded state without the statement lock.  These tests pin the
fix: each entry point must enter ``db._lock`` at least once, in the mode
the ``Database`` docstring gives it, so a future refactor that drops the
``with`` block (or takes the wrong mode) fails here as well as in the
linter.
"""

import pytest

from repro.engine.database import Database
from repro.engine.rwlock import RWLock


class RecordingLock:
    """Wraps the database's RWLock, counting entries per mode."""

    shared = RWLock.shared
    exclusive = RWLock.exclusive

    def __init__(self, inner):
        self._inner = inner
        self.shared_entries = 0
        self.exclusive_entries = 0

    def acquire_shared(self, *args, **kwargs):
        self.shared_entries += 1
        return self._inner.acquire_shared(*args, **kwargs)

    def release_shared(self):
        return self._inner.release_shared()

    def acquire(self, *args, **kwargs):
        self.exclusive_entries += 1
        return self._inner.acquire(*args, **kwargs)

    def release(self):
        return self._inner.release()


@pytest.fixture
def db():
    d = Database()
    d.execute("CREATE TABLE pts (x float, y float)")
    d.insert("pts", [(1.0, 2.0), (3.0, 4.0)])
    return d


def record(d):
    rec = RecordingLock(d._lock)
    d._lock = rec
    return rec


class TestStatementLockCoverage:
    def test_table_takes_the_statement_lock(self, db):
        rec = record(db)
        db.table("pts")
        assert (rec.shared_entries, rec.exclusive_entries) == (1, 0)

    def test_stream_view_names_take_the_statement_lock(self, db):
        rec = record(db)
        db.stream_view_names()
        assert (rec.shared_entries, rec.exclusive_entries) == (1, 0)

    def test_set_trace_takes_the_statement_lock(self, db):
        rec = record(db)
        db.set_trace(True)
        assert (rec.shared_entries, rec.exclusive_entries) == (0, 1)

    def test_explain_takes_the_statement_lock(self, db):
        rec = record(db)
        db.explain("SELECT count(*) FROM pts")
        assert (rec.shared_entries, rec.exclusive_entries) == (1, 0)

    def test_analyze_takes_the_statement_lock(self, db):
        rec = record(db)
        db.analyze("SELECT count(*) FROM pts")
        assert (rec.shared_entries, rec.exclusive_entries) == (1, 0)


@pytest.mark.parametrize("sql,shared", [
    ("SELECT count(*) FROM pts", True),
    ("SELECT x FROM pts UNION SELECT y FROM pts", True),
    ("EXPLAIN SELECT count(*) FROM pts", True),
    ("EXPLAIN ANALYZE SELECT count(*) FROM pts", True),
    ("INSERT INTO pts VALUES (5, 6)", False),
    ("ANALYZE pts", False),
    ("CREATE INDEX ix ON pts (x)", False),
    ("DROP TABLE pts", False),
])
def test_execute_takes_the_mode_of_its_statement(db, sql, shared):
    rec = record(db)
    db.execute(sql)
    expected = (1, 0) if shared else (0, 1)
    assert (rec.shared_entries, rec.exclusive_entries) == expected


# "analyze" here is the statistics statement ``ANALYZE pts``, which writes
# the catalog; ``db.analyze()`` (EXPLAIN ANALYZE) is a read, pinned above.
@pytest.mark.parametrize("call", [
    lambda d: d.execute("ANALYZE pts"),
    lambda d: d.update_statistics("pts"),
    lambda d: d.insert("pts", [(7.0, 8.0)]),
], ids=["analyze", "update_statistics", "insert"])
def test_writes_and_analyze_take_the_statement_lock_exclusive(db, call):
    rec = record(db)
    call(db)
    assert (rec.shared_entries, rec.exclusive_entries) == (0, 1)
