"""Plan-estimate tests: cardinality and cost attached to physical plans."""

import random

import pytest

from repro.engine.database import Database
from repro.engine.executor.relational import SimilarityJoin
from repro.stats.estimator import estimate_plan


@pytest.fixture
def db():
    d = Database()
    d.execute("CREATE TABLE t (x int, y float, s text)")
    d.table("t").insert_many(
        [(i % 50, float(i), f"s{i % 7}") for i in range(1000)]
    )
    d.update_statistics()
    return d


def _plan(db, sql):
    from repro.sql.parser import parse

    stmt, = parse(sql)
    return db._planner().plan_query(stmt)


def _walk(plan):
    yield plan
    for child in plan.children():
        yield from _walk(child)


class TestEstimatesAttached:
    def test_every_node_carries_an_estimate(self, db):
        plan = _plan(
            db,
            "SELECT x, count(*) FROM t WHERE y > 100 "
            "GROUP BY x ORDER BY x LIMIT 5",
        )
        for node in _walk(plan):
            assert node._estimate is not None, type(node).__name__
            assert node._estimate.total_cost >= node._estimate.startup_cost

    def test_reestimation_is_stable(self, db):
        plan = _plan(db, "SELECT * FROM t")
        first = estimate_plan(plan)
        # re-running recomputes from current statistics; with unchanged
        # stats the result must not drift
        assert estimate_plan(plan) == first


class TestCardinality:
    def test_seqscan_rows_exact_after_analyze(self, db):
        plan = _plan(db, "SELECT * FROM t")
        assert estimate_plan(plan).rows == pytest.approx(1000)

    def test_range_filter_band_on_uniform_data(self, db):
        # y uniform on [0, 999]: y > 899 keeps ~10%
        plan = _plan(db, "SELECT * FROM t WHERE y > 899")
        assert estimate_plan(plan).rows == pytest.approx(100, rel=0.5)

    def test_equality_filter_uses_ndv(self, db):
        plan = _plan(db, "SELECT * FROM t WHERE x = 7")
        assert estimate_plan(plan).rows == pytest.approx(20, rel=0.25)

    def test_group_by_rows_from_ndv(self, db):
        plan = _plan(db, "SELECT x, count(*) FROM t GROUP BY x")
        assert estimate_plan(plan).rows == pytest.approx(50, rel=0.25)

    def test_distinct_rows_from_ndv(self, db):
        plan = _plan(db, "SELECT DISTINCT s FROM t")
        assert estimate_plan(plan).rows == pytest.approx(7, rel=0.25)

    def test_limit_caps_rows(self, db):
        plan = _plan(db, "SELECT * FROM t LIMIT 3")
        assert estimate_plan(plan).rows == pytest.approx(3)

    def test_join_cardinality_uses_key_ndv(self, db):
        db.execute("CREATE TABLE u (x int)")
        db.table("u").insert_many([(i % 50,) for i in range(100)])
        db.update_statistics("u")
        plan = _plan(db, "SELECT t.x FROM t, u WHERE t.x = u.x")
        # 1000 * 100 / ndv(50) = 2000
        assert estimate_plan(plan).rows == pytest.approx(2000, rel=0.5)

    def test_similarity_join_rows_follow_right_histograms(self, db):
        rng = random.Random(3)
        db.execute("CREATE TABLE p (px float, py float)")
        db.execute("CREATE TABLE q (qx float, qy float)")
        db.table("p").insert_many(
            [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(200)])
        db.table("q").insert_many(
            [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(100)])
        db.update_statistics("p")
        db.update_statistics("q")
        plan = _plan(db, "SELECT px FROM p, q "
                         "WHERE dist_l2(px, py, qx, qy) <= 20")
        join, = [n for n in _walk(plan) if isinstance(n, SimilarityJoin)]
        stats = join.right.table.active_stats()
        fraction = (stats.column("qx").histogram.eps_fraction(20.0)
                    * stats.column("qy").histogram.eps_fraction(20.0))
        # ~0.36 per axis, far from the 0.01 used without histograms
        assert fraction > 0.05
        assert join._estimate.rows == pytest.approx(200 * 100 * fraction)


class TestCostOrdering:
    def test_blocking_sort_pays_startup(self, db):
        plan = _plan(db, "SELECT * FROM t ORDER BY y")
        est = estimate_plan(plan)
        assert est.startup_cost > 0

    def test_small_equi_join_still_prefers_hash(self, db):
        db.execute("CREATE TABLE small (x int)")
        db.table("small").insert_many([(1,), (2,)])
        plan_text = db.explain("SELECT t.x FROM t, small WHERE t.x = small.x")
        assert "HashJoin" in plan_text

    def test_without_stats_estimates_still_exist(self):
        fresh = Database()
        fresh.execute("CREATE TABLE n (a int)")
        fresh.table("n").insert_many([(i,) for i in range(10)])
        plan = _plan(fresh, "SELECT * FROM n WHERE a = 1")
        for node in _walk(plan):
            assert node._estimate is not None
