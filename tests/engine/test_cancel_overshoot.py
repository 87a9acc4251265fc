"""How far a query runs past a cancel: bounded at row entry and fan-out.

The token is checked where rows enter the plan (leaf scans hand out rows
in chunks of 1, 2, 4, … up to ``CHECKPOINT_EVERY``, checking before
each; a chunk slower than ``CHUNK_BUDGET_S`` halves the next) and where
they multiply (join probes count candidates in strides that grow and
shrink the same way), not as rows cross node edges.  Most
tests trip the token from inside the query, on the ``k``-th call of
``cancel_poke``, and count the calls that still ran after it:

* a ``Filter`` over a leaf scan runs at most ``min(k + 1,
  CHECKPOINT_EVERY)`` more — the chunk in flight, never more rows than
  had passed before the cancel;
* a join probe runs at most ``CHECKPOINT_EVERY`` more candidates, even
  when every key is equal (one bucket holds the whole right side) or no
  candidate ever matches (no row would leave the join to be checked).

Past a deadline, a join whose candidates (or the rows above it) are slow
stops within a few ms, not a full stride of slow candidates; so does an
aggregation node whose argument column is slow to evaluate.
"""

import time

import pytest

from repro.core.cancel import CancelToken
from repro.engine import functions
from repro.engine.database import Database
from repro.engine.executor.base import PhysicalOperator
from repro.engine.executor.relational import Filter
from repro.engine.executor.scans import ValuesScan
from repro.engine.schema import Column, Schema
from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.obs import QueryContext
from repro.sql.ast_nodes import BindContext
from repro.sql.parser import parse

EVERY = PhysicalOperator.CHECKPOINT_EVERY
N_ROWS = 5000
TRIPS = [1, 2, 3, 50, 700, 1024, 1500, 3000]


class Poke:
    """``cancel_poke(v)``: returns ``v``, cancels the token on call ``k``."""

    def __init__(self, monkeypatch, k):
        self.k = k
        self.calls = 0
        self.token = CancelToken()
        monkeypatch.setitem(functions._FUNCTIONS, ("cancel_poke", 1),
                            self)

    def __call__(self, v):
        self.calls += 1
        if self.calls == self.k:
            self.token.cancel()
        return v

    @property
    def after(self):
        """Calls that ran after the one that cancelled."""
        assert self.calls >= self.k
        return self.calls - self.k


def leaf_db():
    db = Database()
    db.execute("CREATE TABLE t (k int, x float)")
    db.execute("CREATE INDEX t_k ON t (k)")
    db.insert("t", [(i, float(i % 97)) for i in range(N_ROWS)])
    return db


def run_sql(db, sql, node, poke):
    assert node in db.explain(sql.replace("cancel_poke", "abs"))
    with pytest.raises(QueryCancelledError):
        db.execute(sql, cancel=poke.token)


@pytest.fixture(scope="module")
def db():
    return leaf_db()


@pytest.mark.parametrize("k", TRIPS)
class TestFilterOverLeafScan:
    def test_seq_scan(self, monkeypatch, db, k):
        poke = Poke(monkeypatch, k)
        run_sql(db, "SELECT count(*) FROM t WHERE cancel_poke(x) >= 0",
                "SeqScan on t", poke)
        assert poke.after <= min(k + 1, EVERY)

    def test_index_scan(self, monkeypatch, db, k):
        poke = Poke(monkeypatch, k)
        run_sql(db, "SELECT count(*) FROM t "
                    "WHERE k >= 0 AND cancel_poke(x) >= 0",
                "IndexScan using t_k", poke)
        assert poke.after <= min(k + 1, EVERY)

    def test_values_scan(self, monkeypatch, k):
        poke = Poke(monkeypatch, k)
        where = parse("SELECT x FROM v WHERE cancel_poke(x) >= 0")[0].where
        schema = Schema([Column("x", "float")])
        plan = Filter(ValuesScan([(float(i),) for i in range(N_ROWS)],
                                 schema),
                      where, BindContext)
        QueryContext(cancel=poke.token).bind(plan)
        with pytest.raises(QueryCancelledError):
            plan.rows()
        assert poke.after <= min(k + 1, EVERY)


class _CountingToken:
    def __init__(self):
        self.checks = 0

    def check(self):
        self.checks += 1


class _Leaf(PhysicalOperator):
    def __init__(self, n, token):
        self.n = n
        self._ctx = QueryContext(cancel=token)

    def _execute(self):
        return self._checked(range(self.n))


class TestCheckedChunks:
    def test_quick_rows_are_checked_once_per_stride(self):
        token = _CountingToken()
        assert list(_Leaf(20000, token)) == list(range(20000))
        # 1, 2, 4, … 1024, then 1024 at a time: about 30 checks.  Only a
        # chunk that took longer than the budget (the process was
        # descheduled) halves the next one.
        assert 20000 // EVERY < token.checks <= 200

    def test_slow_rows_are_checked_about_every_budget(self):
        """Pure doubling would check 7 times over 60 slow rows and let
        one cancel run 32 rows (32 ms) on; a chunk over the budget
        halves the next, so the stride stays at one or two rows."""
        token = _CountingToken()
        for _ in _Leaf(60, token):
            time.sleep(PhysicalOperator.CHUNK_BUDGET_S / 2)
        assert token.checks >= 30

    def test_no_token_hands_back_the_rows(self):
        leaf = _Leaf(3, None)
        rows = [0, 1, 2]
        assert type(leaf._checked(rows)) is type(iter(rows))


def join_db(n, same_key):
    db = Database()
    for name in ("a", "b"):
        db.execute(f"CREATE TABLE {name} (k int, x float, y float)")
        db.insert(name, [(0 if same_key else i, float(i % 13),
                          float(i % 7)) for i in range(n)])
    return db


@pytest.mark.parametrize("k", [1, 50, 2000])
class TestJoinProbe:
    def test_skewed_hash_join_residual(self, monkeypatch, k):
        """Every key equal: one 3000-row bucket per probe row, 9 M
        candidates, the residual never true."""
        poke = Poke(monkeypatch, k)
        run_sql(join_db(3000, same_key=True),
                "SELECT count(*) FROM a, b "
                "WHERE a.k = b.k AND cancel_poke(a.x + b.x) < 0",
                "HashJoin (1 key(s))", poke)
        assert poke.after <= EVERY

    def test_non_equi_nested_loop_join(self, monkeypatch, k):
        poke = Poke(monkeypatch, k)
        run_sql(join_db(3000, same_key=False),
                "SELECT count(*) FROM a JOIN b "
                "ON cancel_poke(a.x + b.x) < 0",
                "NestedLoopJoin on", poke)
        assert poke.after <= EVERY

    def test_similarity_join(self, monkeypatch, k):
        """Every right point within ε of every left point: each probe
        gathers the whole right side."""
        poke = Poke(monkeypatch, k)
        run_sql(join_db(1500, same_key=False),
                "SELECT count(*) FROM a, b "
                "WHERE dist_l2(a.x, a.y, b.x, b.y) <= 100 "
                "AND cancel_poke(a.x + b.x) < 0",
                "SimilarityJoin (l2 within 100.0)", poke)
        assert poke.after <= EVERY


class TestJoinProbePastDeadline:
    """A probe stride slower than ``CHUNK_BUDGET_S`` halves the next, so
    slow matches, in the residual or in a node above the join, run at
    most a candidate or two past a deadline.  A fixed stride of
    ``CHECKPOINT_EVERY`` ran up to 1023 of them past it: 0.29 s of
    ``sleep(0.001)`` and 0.6 s of ``sleep(0.002)`` on a 2-core VM."""

    DEADLINE_S = 0.05
    BOUND_MS = 20.0

    @pytest.fixture(scope="class")
    def skewed(self):
        return join_db(300, same_key=True)

    def overshoot_ms(self, db, sql, node):
        assert node in db.explain(sql)
        token = CancelToken.with_timeout(self.DEADLINE_S)
        with pytest.raises(QueryTimeoutError):
            db.execute(sql, cancel=token)
        return (time.monotonic() - token.deadline) * 1000.0

    def test_slow_true_residual(self, skewed):
        sql = ("SELECT count(*) FROM a, b "
               "WHERE a.k = b.k AND sleep(0.001) + a.x + b.x >= 0")
        assert self.overshoot_ms(skewed, sql, "HashJoin (1 key(s))") \
            <= self.BOUND_MS

    def test_slow_projection_above_the_join(self, skewed):
        sql = "SELECT sleep(0.002) FROM a JOIN b ON a.k = b.k"
        assert self.overshoot_ms(skewed, sql, "HashJoin (1 key(s))") \
            <= self.BOUND_MS


class TestColumnarFoldPastDeadline:
    """The aggregation nodes evaluate an argument as a column, chunk by
    chunk through ``_chunks``: a chunk of slow values (``sleep(s) + 0``,
    a column of ``sleep`` calls and then a column ``+``) slower than
    ``CHUNK_BUDGET_S`` halves the next, so the fold stops within a
    value or two of a deadline, in ``HashAggregate`` and in the SGB
    node alike."""

    DEADLINE_S = 0.05
    BOUND_MS = 20.0

    @pytest.fixture(scope="class")
    def slow(self):
        db = Database()
        db.execute("CREATE TABLE s (k int, x float, y float, z float)")
        # 100 groups of 4 points, 3 apart: the grouping checks the token
        # only between partitions, and on the python backend denser
        # points (400 over 187 spots) take about 40 ms of the 50 ms
        # deadline before the fold starts.
        db.insert("s", [(i % 3, 0.002, float(3 * (i // 4)), float(i % 2))
                        for i in range(400)])
        return db

    def overshoot_ms(self, db, sql, node):
        assert node in db.explain(sql)
        token = CancelToken.with_timeout(self.DEADLINE_S)
        with pytest.raises(QueryTimeoutError):
            db.execute(sql, cancel=token)
        return (time.monotonic() - token.deadline) * 1000.0

    def test_hash_aggregate_argument(self, slow):
        sql = "SELECT sum(sleep(x) + 0) FROM s GROUP BY k"
        assert self.overshoot_ms(slow, sql, "HashAggregate (keys=1") \
            <= self.BOUND_MS

    def test_similarity_aggregate_argument(self, slow):
        sql = ("SELECT sum(sleep(x) + 0) FROM s "
               "GROUP BY y, z DISTANCE-TO-ANY L2 WITHIN 2")
        assert self.overshoot_ms(slow, sql, "SimilarityGroupBy") \
            <= self.BOUND_MS
