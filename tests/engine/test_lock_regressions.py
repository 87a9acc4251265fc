"""Statement-lock coverage of every public ``Database`` entry point.

A lock-discipline lint rule once found ``table()``,
``stream_view_names()``, ``set_trace()`` and ``explain()`` reading
lock-guarded state without the statement lock.  The first tests pin
those fixes.  :data:`ENTRY_POINTS` then pins every public method to the
mode the ``Database`` docstring gives it, and
:func:`test_every_public_method_is_pinned` fails on a public method that
is in neither that table nor :data:`NO_STATEMENT_LOCK`: a new entry
point cannot land without its mode pinned here.
"""

import inspect

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


def with_view():
    d = Database()
    d.execute("CREATE TABLE pts (x float, y float)")
    d.insert("pts", [(1.0, 2.0), (3.0, 4.0)])
    d.create_stream_view("v", "pts", ["x", "y"], eps=1.0)
    return d


SELECT = "SELECT count(*) FROM pts"

#: Public method -> (a call of it, (shared, exclusive) lock entries).
ENTRY_POINTS = {
    "analyze": (lambda d: d.analyze(SELECT), (1, 0)),
    "create_stream_view": (
        lambda d: d.create_stream_view("w", "pts", ["x"], eps=1.0), (0, 1)),
    "create_table": (
        lambda d: d.create_table("q", [("a", "float")]), (0, 1)),
    "drop_stream_view": (lambda d: d.drop_stream_view("v"), (0, 1)),
    "execute": (lambda d: d.execute(SELECT), (1, 0)),
    "explain": (lambda d: d.explain(SELECT), (1, 0)),
    "explain_analyze": (lambda d: d.explain_analyze(SELECT), (1, 0)),
    "insert": (lambda d: d.insert("pts", [(5.0, 6.0)]), (0, 1)),
    # Scrapes must not queue behind a long query: the metric bag has its
    # own lock.
    "metrics_snapshot": (lambda d: d.metrics_snapshot(), (0, 0)),
    "query": (lambda d: d.query(SELECT), (1, 0)),
    "set_trace": (lambda d: d.set_trace(True), (0, 1)),
    "stream_snapshot": (lambda d: d.stream_snapshot("v"), (0, 1)),
    "stream_view": (lambda d: d.stream_view("v"), (1, 0)),
    "stream_view_names": (lambda d: d.stream_view_names(), (1, 0)),
    "table": (lambda d: d.table("pts"), (1, 0)),
    "update_statistics": (lambda d: d.update_statistics("pts"), (0, 1)),
}

#: Public members that take no statement lock, and why.
NO_STATEMENT_LOCK = {
    "export_trace": "copies the tracer's ring, which guards its appends",
    "set_query_log": "swaps the query log, which has its own lock",
    "trace_enabled": "property: one attribute read",
    "query_log_enabled": "property: two attribute reads",
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_takes_its_documented_mode(name):
    call, expected = ENTRY_POINTS[name]
    d = with_view()
    rec = record(d)
    call(d)
    assert (rec.shared_entries, rec.exclusive_entries) == expected


def test_every_public_method_is_pinned():
    public = {name for name, _ in inspect.getmembers(Database)
              if not name.startswith("_")}
    assert not set(ENTRY_POINTS) & set(NO_STATEMENT_LOCK)
    assert public == set(ENTRY_POINTS) | set(NO_STATEMENT_LOCK)
