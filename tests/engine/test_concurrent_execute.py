"""Database thread-safety: statements hammered from many threads.

Reads share the statement lock and writes take it exclusive, so the
invariants here are about *correctness under interleaving* — no torn
catalog state, no cross-talk between results, counts that add up
exactly.
"""

import sys
import threading

import pytest

from repro.engine.database import Database

N_THREADS = 8
ROUNDS = 10


@pytest.fixture
def db():
    d = Database()
    d.execute("CREATE TABLE pts (tid int, x float, y float)")
    return d


class TestConcurrentStatements:
    def test_concurrent_inserts_all_land(self, db):
        barrier = threading.Barrier(N_THREADS)
        errors = []

        def worker(tid: int) -> None:
            try:
                barrier.wait(timeout=10.0)
                for i in range(ROUNDS):
                    db.execute(
                        f"INSERT INTO pts VALUES ({tid}, {i}, {i})"
                    )
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                errors.append((tid, exc))

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert errors == []
        total = db.query("SELECT count(*) FROM pts").scalar()
        assert total == N_THREADS * ROUNDS
        per_thread = db.query(
            "SELECT tid, count(*) FROM pts GROUP BY tid ORDER BY tid"
        ).rows
        assert per_thread == [(t, ROUNDS) for t in range(N_THREADS)]

    def test_concurrent_queries_see_consistent_results(self, db):
        rows = [(0, float(i % 5), float(i % 3)) for i in range(60)]
        db.insert("pts", rows)
        sql = (
            "SELECT count(*) FROM pts "
            "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1"
        )
        expected = db.query(sql).rows
        barrier = threading.Barrier(N_THREADS)
        mismatches = []
        errors = []

        def worker(tid: int) -> None:
            try:
                barrier.wait(timeout=10.0)
                for _ in range(ROUNDS):
                    got = db.query(sql).rows
                    if got != expected:
                        mismatches.append((tid, got))
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                errors.append((tid, exc))

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert errors == []
        assert mismatches == []

    def test_mixed_readers_and_writers(self, db):
        """Readers racing writers always see a whole number of the
        4-row batches the writers insert (statements are atomic)."""
        stop = threading.Event()
        bad_counts = []
        errors = []

        def writer() -> None:
            try:
                for i in range(ROUNDS):
                    db.execute(
                        "INSERT INTO pts VALUES "
                        f"(9, {i}, 0), (9, {i}, 1), "
                        f"(9, {i}, 2), (9, {i}, 3)"
                    )
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                errors.append(exc)

        def reader() -> None:
            try:
                while not stop.is_set():
                    n = db.query("SELECT count(*) FROM pts").scalar()
                    if n % 4 != 0:
                        bad_counts.append(n)
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                errors.append(exc)

        writers = [threading.Thread(target=writer) for _ in range(4)]
        readers = [threading.Thread(target=reader) for _ in range(4)]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join(timeout=60.0)
        stop.set()
        for t in readers:
            t.join(timeout=60.0)
        assert errors == []
        assert bad_counts == []
        assert db.query("SELECT count(*) FROM pts").scalar() == \
            4 * ROUNDS * 4

    def test_concurrent_ddl_is_serialized(self, db):
        """Every thread creates and drops its own table; the shared
        catalog never loses or leaks one."""
        barrier = threading.Barrier(N_THREADS)
        errors = []

        def worker(tid: int) -> None:
            try:
                barrier.wait(timeout=10.0)
                for i in range(ROUNDS):
                    db.execute(f"CREATE TABLE t_{tid} (v int)")
                    db.execute(f"INSERT INTO t_{tid} VALUES ({i})")
                    db.execute(f"DROP TABLE t_{tid}")
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                errors.append((tid, exc))

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert errors == []
        # Only the fixture's table remains.
        assert db.query("SELECT count(*) FROM pts").scalar() == 0

    def test_metrics_scrape_survives_stream_view_ddl(self, db):
        """``metrics_snapshot()`` runs under the metrics lock only (a
        scrape must not queue behind a long statement), so it used to
        iterate the live stream-view dict while another thread created
        and dropped views: ``RuntimeError: dictionary changed size
        during iteration`` inside a ``/metrics`` scrape."""
        stop = threading.Event()
        errors = []

        def ddl() -> None:
            try:
                while not stop.is_set():
                    db.create_stream_view("v", "pts", ["x", "y"], eps=1.0)
                    db.drop_stream_view("v")
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        thread = threading.Thread(target=ddl)
        thread.start()
        try:
            for _ in range(3000):
                db.metrics_snapshot()
        finally:
            stop.set()
            thread.join(timeout=60.0)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert errors == []

    def test_metrics_scrape_does_not_wait_on_the_statement_lock(self, db):
        held = threading.Event()
        release = threading.Event()

        def statement() -> None:
            with db._lock.exclusive():
                held.set()
                release.wait(timeout=30.0)

        thread = threading.Thread(target=statement)
        thread.start()
        try:
            assert held.wait(timeout=10.0)
            assert "repro_queries_total" in db.metrics_snapshot()
        finally:
            release.set()
            thread.join(timeout=30.0)
        assert not thread.is_alive()
