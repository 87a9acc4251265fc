"""Planner tests: plan shapes, pushdown, and planning errors."""

import pytest

from repro.engine.database import Database
from repro.errors import PlanningError
from repro.sql.parser import parse


@pytest.fixture
def db():
    d = Database()
    d.execute("CREATE TABLE a (x int, y int)")
    d.execute("CREATE TABLE b (x int, z int)")
    d.insert("a", [(1, 10), (2, 20)])
    d.insert("b", [(1, 100), (3, 300)])
    return d


class TestPlanShapes:
    def test_filter_pushed_to_scan(self, db):
        plan = db.explain("SELECT a.x FROM a, b WHERE a.y > 5 AND a.x = b.x")
        lines = plan.splitlines()
        # the single-table filter must sit below the join, above the scan
        join_depth = next(i for i, l in enumerate(lines) if "HashJoin" in l)
        filter_depth = next(i for i, l in enumerate(lines) if "Filter" in l)
        assert filter_depth > join_depth

    def test_equi_join_becomes_hash_join(self, db):
        plan = db.explain("SELECT a.x FROM a, b WHERE a.x = b.x")
        assert "HashJoin" in plan
        assert "NestedLoopJoin" not in plan

    def test_non_equi_join_is_nested_loop(self, db):
        plan = db.explain("SELECT a.x FROM a, b WHERE a.x < b.x")
        assert "NestedLoopJoin" in plan

    def test_constant_condition_not_a_join_key(self, db):
        # `1 = 1` has no columns on either side: must not become a hash key
        plan = db.explain("SELECT a.x FROM a, b WHERE 1 = 1")
        assert "HashJoin" not in plan
        res = db.query("SELECT count(*) FROM a, b WHERE 1 = 1")
        assert res.scalar() == 4

    def test_join_on_condition_used(self, db):
        plan = db.explain("SELECT a.x FROM a JOIN b ON a.x = b.x")
        assert "HashJoin" in plan

    @pytest.mark.parametrize("sql", [
        "SELECT a.x FROM a JOIN b ON a.x = b.x AND a.y < b.z",
        "SELECT a.x FROM a, b WHERE a.x = b.x AND a.y < b.z",
    ], ids=["on", "where"])
    def test_equality_inside_conjunctive_on_is_a_hash_key(self, db, sql):
        plan = db._planner().plan_query(parse(sql)[0])
        join = plan.children()[0]
        assert join.describe() == "HashJoin (1 key(s))"
        assert repr(join._residual_expr) == (
            "BinaryOp('<', ColumnRef(a.y), ColumnRef(b.z))")
        assert db.query(sql).rows == [(1,)]

    def test_order_limit_is_sort_below_project_below_limit(self, db):
        plan = db.explain("SELECT x FROM a ORDER BY x LIMIT 1")
        nodes = [line.split("->")[1].split("  (")[0].strip()
                 for line in plan.splitlines()]
        assert nodes == ["Limit 1", "Project [x]", "Sort (1 key(s))",
                         "SeqScan on a as a"]
        assert db.query("SELECT x FROM a ORDER BY x LIMIT 1").rows == [(1,)]

    def test_order_without_limit_uses_sort(self, db):
        plan = db.explain("SELECT x FROM a ORDER BY x")
        assert "Sort" in plan

    def test_distinct_disables_topn(self, db):
        plan = db.explain("SELECT DISTINCT x FROM a ORDER BY x LIMIT 1")
        assert "Sort" in plan and "Limit" in plan

    def test_distinct_node(self, db):
        assert "Distinct" in db.explain("SELECT DISTINCT x FROM a")

    def test_aggregate_node(self, db):
        plan = db.explain("SELECT x, count(*) FROM a GROUP BY x")
        assert "HashAggregate" in plan


class TestJoinOrdering:
    @pytest.fixture
    def db3(self):
        d = Database()
        d.execute("CREATE TABLE big (k int, v int)")
        d.execute("CREATE TABLE mid (k int, m int)")
        d.execute("CREATE TABLE small (m int, s int)")
        d.insert("big", [(i % 10, i) for i in range(200)])
        d.insert("mid", [(i, i) for i in range(10)])
        d.insert("small", [(i, i * 100) for i in range(5)])
        return d

    def test_adversarial_order_avoids_cross_join(self, db3):
        # small and big share no join condition; naive left-deep order
        # small -> big would cross-join them before mid arrives
        plan = db3.explain(
            "SELECT count(*) FROM small, big, mid "
            "WHERE big.k = mid.k AND mid.m = small.m"
        )
        assert "NestedLoopJoin" not in plan
        assert plan.count("HashJoin") == 2

    def test_reordering_preserves_semantics(self, db3):
        orders = [
            "small, big, mid", "big, mid, small", "mid, small, big",
        ]
        results = set()
        for order in orders:
            res = db3.query(
                f"SELECT count(*) FROM {order} "
                "WHERE big.k = mid.k AND mid.m = small.m"
            )
            results.add(res.scalar())
        assert len(results) == 1

    def test_explicit_join_order_is_pinned(self, db3):
        # explicit JOIN ... ON must not be reordered
        plan = db3.explain(
            "SELECT count(*) FROM small JOIN mid ON small.m = mid.m "
            "JOIN big ON mid.k = big.k"
        )
        lines = plan.splitlines()
        small_line = next(i for i, l in enumerate(lines) if "small" in l)
        big_line = next(i for i, l in enumerate(lines) if "on big" in l)
        assert small_line < big_line  # small stays the leftmost source

    def test_two_sources_keep_user_order(self, db3):
        # reordering only kicks in for 3+ comma sources
        plan = db3.explain(
            "SELECT count(*) FROM small, big WHERE small.m < big.k"
        )
        first_scan = next(l for l in plan.splitlines() if "SeqScan" in l)
        assert "small" in first_scan

    def test_three_sources_start_from_largest(self, db3):
        plan = db3.explain(
            "SELECT count(*) FROM small, big, mid "
            "WHERE big.k = mid.k AND mid.m = small.m"
        )
        first_scan = next(l for l in plan.splitlines() if "SeqScan" in l)
        assert "big" in first_scan


class TestPlannerErrors:
    def test_unknown_column(self, db):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError, match="not found"):
            db.query("SELECT nope FROM a")

    def test_ambiguous_column(self, db):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError, match="ambiguous"):
            db.query("SELECT x FROM a, b")

    def test_star_with_group_by(self, db):
        with pytest.raises(PlanningError, match=r"\*"):
            db.query("SELECT * FROM a GROUP BY x")

    def test_nested_aggregates_rejected(self, db):
        with pytest.raises(PlanningError, match="nested"):
            db.query("SELECT sum(count(x)) FROM a")

    def test_order_by_position_out_of_range(self, db):
        with pytest.raises(PlanningError, match="position"):
            db.query("SELECT x FROM a ORDER BY 2")

    def test_explain_rejects_non_select(self, db):
        with pytest.raises(PlanningError):
            db.explain("CREATE TABLE c (q int)")


class TestSemanticResults:
    """Plans must not just look right — spot-check the row-level outcome of
    each planning decision."""

    def test_pushdown_preserves_semantics(self, db):
        res = db.query(
            "SELECT a.x, b.z FROM a, b WHERE a.y > 15 AND a.x = b.x"
        )
        assert res.rows == []
        res = db.query(
            "SELECT a.x, b.z FROM a, b WHERE a.y > 5 AND a.x = b.x"
        )
        assert res.rows == [(1, 100)]

    def test_residual_condition_after_hash_join(self, db):
        res = db.query(
            "SELECT a.x FROM a, b WHERE a.x = b.x AND a.y < b.z"
        )
        assert res.rows == [(1,)]

    def test_swapped_equi_condition(self, db):
        res = db.query("SELECT a.x FROM a, b WHERE b.x = a.x")
        assert res.rows == [(1,)]
