"""Reader/writer behaviour of the statement lock.

SELECTs, ``analyze()`` and EXPLAIN [ANALYZE] hold the lock shared and
run beside each other; writes (INSERT, DDL, ANALYZE) hold it exclusive.
A SELECT is kept open with the ``sleep(s)`` scalar, which sleeps once
per row, so the interleavings below are forced rather than hoped for:
each test waits until the lock itself reports the state it needs (a
reader in, a writer queued) before issuing the next statement.
"""

import threading
import time

import pytest

from repro.core.cancel import CancelToken
from repro.engine.database import Database
from repro.engine.rwlock import RWLock
from repro.errors import ExecutionError, QueryTimeoutError

#: Two rows at 0.6 s each: long enough for the main thread to act.
SLOW_SELECT = "SELECT x, sleep(0.6) FROM pts ORDER BY x"
PRE_WRITE_ROWS = [(1.0, 0.6), (2.0, 0.6)]


@pytest.fixture
def db():
    d = Database()
    d.execute("CREATE TABLE pts (x float, y float)")
    d.insert("pts", [(1.0, 0.0), (2.0, 0.0)])
    return d


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition never held")
        time.sleep(0.001)


class Background:
    """Run ``fn`` on a thread, keeping its result or exception."""

    def __init__(self, fn):
        self.result = None
        self.error = None

        def run():
            try:
                self.result = fn()
            except BaseException as exc:  # noqa: BLE001 - re-raised in join
                self.error = exc

        self.thread = threading.Thread(target=run)
        self.thread.start()

    def alive(self):
        return self.thread.is_alive()

    def join(self):
        self.thread.join(timeout=30.0)
        assert not self.thread.is_alive()
        if self.error is not None:
            raise self.error
        return self.result


def lock_is_free(lock):
    return (lock.readers, lock._writer, lock._writers_waiting) == (0, None, 0)


class TestReadersShare:
    def test_two_selects_overlap(self, db):
        slow = Background(lambda: db.query(SLOW_SELECT).rows)
        wait_until(lambda: db._lock.readers == 1)
        # Serialized reads would block here until the slow one finished.
        assert db.query("SELECT count(*) FROM pts").scalar() == 2
        assert slow.alive()
        assert slow.join() == PRE_WRITE_ROWS
        assert lock_is_free(db._lock)


@pytest.mark.parametrize("write,check", [
    ("INSERT INTO pts VALUES (3, 0)",
     lambda d: d.query("SELECT count(*) FROM pts").scalar() == 3),
    ("DROP TABLE pts", lambda d: "pts" not in d.catalog),
    ("CREATE INDEX ix ON pts (x)",
     lambda d: "ix" in d.table("pts").indexes),
    ("ANALYZE pts",
     lambda d: d.table("pts").stats is not None),
], ids=["insert", "drop_table", "create_index", "analyze"])
class TestWritesWaitForReaders:
    def test_write_mid_select_waits_and_select_sees_pre_write(
            self, db, write, check):
        slow = Background(lambda: db.query(SLOW_SELECT).rows)
        wait_until(lambda: db._lock.readers == 1)
        writer = Background(lambda: db.execute(write))
        wait_until(lambda: db._lock._writers_waiting == 1)
        assert writer.alive() and slow.alive()
        assert slow.join() == PRE_WRITE_ROWS
        writer.join()
        assert check(db)
        assert lock_is_free(db._lock)


class TestWriterPreference:
    def test_select_behind_a_waiting_writer_runs_after_it(self, db):
        slow = Background(lambda: db.query(SLOW_SELECT).rows)
        wait_until(lambda: db._lock.readers == 1)
        writer = Background(
            lambda: db.execute("INSERT INTO pts VALUES (3, 0)"))
        wait_until(lambda: db._lock._writers_waiting == 1)
        late = Background(
            lambda: db.query("SELECT count(*) FROM pts").scalar())
        # The late reader sees the insert, so it ran after the writer.
        assert late.join() == 3
        assert slow.join() == PRE_WRITE_ROWS
        writer.join()
        assert lock_is_free(db._lock)


class TestDeadlinesWhileWaiting:
    def test_shared_wait_times_out_behind_a_writer(self, db):
        release = threading.Event()

        def hold_exclusive():
            with db._lock.exclusive():
                release.wait(timeout=30.0)

        holder = Background(hold_exclusive)
        wait_until(lambda: db._lock._writer is not None)
        with pytest.raises(QueryTimeoutError):
            db.execute("SELECT count(*) FROM pts",
                       cancel=CancelToken.with_timeout(0.1))
        release.set()
        holder.join()
        assert lock_is_free(db._lock)
        assert db.query("SELECT count(*) FROM pts").scalar() == 2

    def test_exclusive_wait_times_out_behind_a_reader(self, db):
        slow = Background(lambda: db.query(SLOW_SELECT).rows)
        wait_until(lambda: db._lock.readers == 1)
        with pytest.raises(QueryTimeoutError):
            db.execute("INSERT INTO pts VALUES (3, 0)",
                       cancel=CancelToken.with_timeout(0.1))
        # The abandoned writer no longer holds new readers back.
        assert db._lock._writers_waiting == 0
        assert db.query("SELECT count(*) FROM pts").scalar() == 2
        assert slow.join() == PRE_WRITE_ROWS
        assert lock_is_free(db._lock)
        db.execute("INSERT INTO pts VALUES (3, 0)")
        assert db.query("SELECT count(*) FROM pts").scalar() == 3


class TestAnalyzeIsShared:
    def test_two_concurrent_analyze_calls_overlap(self, db):
        sql = "SELECT x, sleep(0.1) FROM pts"
        barrier = threading.Barrier(2)

        def run():
            barrier.wait(timeout=10.0)
            return db.analyze(sql)

        runs = [Background(run) for _ in range(2)]
        # An exclusive hold would never let the second reader in.
        wait_until(lambda: db._lock.readers == 2)
        for result in (r.join() for r in runs):
            assert sorted(result.rows) == [(1.0, 0.1), (2.0, 0.1)]
            assert result.metrics["rows"] == 2
        assert lock_is_free(db._lock)

    def test_select_completes_while_explain_analyze_holds_the_lock(
            self, db):
        slow = Background(
            lambda: db.execute("EXPLAIN ANALYZE " + SLOW_SELECT).rows)
        wait_until(lambda: db._lock.readers == 1)
        assert db.query("SELECT count(*) FROM pts").scalar() == 2
        assert slow.alive()
        plan = slow.join()
        assert plan[0][0].startswith("-> Project")
        assert "(actual rows=2 " in plan[0][0]
        assert lock_is_free(db._lock)


class TestNoReentry:
    @pytest.mark.parametrize("outer,inner", [
        ("shared", "acquire_shared"),
        ("shared", "acquire"),
        ("exclusive", "acquire_shared"),
        ("exclusive", "acquire"),
    ])
    def test_reentry_raises_instead_of_deadlocking(self, outer, inner):
        lock = RWLock()
        with getattr(lock, outer)():
            with pytest.raises(ExecutionError, match="not re-entrant"):
                getattr(lock, inner)()
        assert lock_is_free(lock)

    def test_drop_table_drops_its_stream_views_without_reentry(self, db):
        db.create_stream_view("v", "pts", ["x", "y"], eps=1.0)
        db.execute("DROP TABLE pts")
        assert db.stream_view_names() == []
        assert lock_is_free(db._lock)
