"""End-to-end SQL tests through the Database facade."""

import datetime as dt

import pytest

from repro.engine.database import Database, QueryResult, StatementResult
from repro.errors import CatalogError, ExecutionError, PlanningError


@pytest.fixture
def db():
    d = Database()
    d.execute("CREATE TABLE emp (id int, name text, dept text, salary float,"
              " hired date)")
    d.execute(
        "INSERT INTO emp VALUES "
        "(1, 'ann', 'eng', 100.0, '2020-01-15'), "
        "(2, 'bob', 'eng', 90.0, '2021-06-01'), "
        "(3, 'cat', 'ops', 80.0, '2019-03-20'), "
        "(4, 'dan', 'ops', 85.0, '2022-11-11'), "
        "(5, 'eve', 'mgmt', 150.0, '2018-07-04')"
    )
    d.execute("CREATE TABLE dept (dname text, budget float)")
    d.execute("INSERT INTO dept VALUES ('eng', 1000.0), ('ops', 500.0)")
    return d


class TestDDLDML:
    def test_create_insert_status(self):
        d = Database()
        res = d.execute("CREATE TABLE t (a int)")
        assert isinstance(res, StatementResult)
        assert res.status == "CREATE TABLE"
        res = d.execute("INSERT INTO t VALUES (1), (2)")
        assert res.status == "INSERT 2"

    def test_insert_with_column_list_fills_nulls(self):
        d = Database()
        d.execute("CREATE TABLE t (a int, b int, c int)")
        d.execute("INSERT INTO t (c, a) VALUES (3, 1)")
        assert d.query("SELECT * FROM t").rows == [(1, None, 3)]

    def test_insert_unknown_column(self):
        d = Database()
        d.execute("CREATE TABLE t (a int)")
        with pytest.raises(PlanningError, match="unknown insert columns"):
            d.execute("INSERT INTO t (bogus) VALUES (1)")

    def test_drop_table(self):
        d = Database()
        d.execute("CREATE TABLE t (a int)")
        d.execute("DROP TABLE t")
        with pytest.raises(CatalogError):
            d.execute("SELECT * FROM t")

    def test_dates_coerced_on_insert(self, db):
        hired = db.query("SELECT hired FROM emp WHERE id = 1").scalar()
        assert hired == dt.date(2020, 1, 15)


class TestBasicSelect:
    def test_select_star(self, db):
        res = db.query("SELECT * FROM emp")
        assert len(res) == 5
        assert res.columns == ["id", "name", "dept", "salary", "hired"]

    def test_projection_and_arithmetic(self, db):
        res = db.query("SELECT name, salary * 1.1 AS bumped FROM emp "
                       "WHERE id = 1")
        assert res.columns == ["name", "bumped"]
        assert res.rows[0][1] == pytest.approx(110.0)

    def test_where_filters(self, db):
        res = db.query("SELECT name FROM emp WHERE dept = 'eng'")
        assert sorted(r[0] for r in res) == ["ann", "bob"]

    def test_where_between_and_in(self, db):
        res = db.query(
            "SELECT name FROM emp WHERE salary BETWEEN 80 AND 90 "
            "AND dept IN ('ops', 'mgmt')"
        )
        assert sorted(r[0] for r in res) == ["cat", "dan"]

    def test_like(self, db):
        res = db.query("SELECT name FROM emp WHERE name LIKE '_a%'")
        assert sorted(r[0] for r in res) == ["cat", "dan"]

    def test_order_by_and_limit(self, db):
        res = db.query("SELECT name FROM emp ORDER BY salary DESC LIMIT 2")
        assert [r[0] for r in res] == ["eve", "ann"]

    def test_order_by_position_and_alias(self, db):
        res = db.query("SELECT name, salary AS pay FROM emp ORDER BY 2")
        assert [r[0] for r in res][0] == "cat"
        res = db.query("SELECT name, salary AS pay FROM emp ORDER BY pay")
        assert [r[0] for r in res][0] == "cat"

    def test_distinct(self, db):
        res = db.query("SELECT DISTINCT dept FROM emp")
        assert sorted(r[0] for r in res) == ["eng", "mgmt", "ops"]

    def test_select_without_from(self):
        d = Database()
        assert d.query("SELECT 1 + 2 AS three").rows == [(3,)]

    def test_date_arithmetic(self, db):
        res = db.query(
            "SELECT name FROM emp "
            "WHERE hired < date '2020-01-01' + interval '1' year"
        )
        assert sorted(r[0] for r in res) == ["ann", "cat", "eve"]

    def test_date_subtraction_days(self, db):
        res = db.query(
            "SELECT hired - date '2020-01-01' FROM emp WHERE id = 1"
        )
        assert res.scalar() == 14

    @pytest.mark.parametrize("expr", ["id / 0", "id % 0", "salary % 0",
                                      "salary % 0.0", "mod(id, 0)"])
    def test_division_by_zero_is_an_execution_error(self, db, expr):
        with pytest.raises(ExecutionError, match="division by zero"):
            db.query(f"SELECT {expr} FROM emp")

    def test_a_failing_constant_fails_per_row(self, db):
        # Folding ``1 / 0`` at bind time raises; the node then binds
        # unfolded, so only a row reaching it fails.
        assert db.query("SELECT 1 / 0 FROM emp WHERE salary > 1000").rows == []
        with pytest.raises(ExecutionError, match="division by zero"):
            db.query("SELECT 1 / 0 FROM emp")

    def test_constant_date_arithmetic_folds_to_the_row_value(self, db):
        db.execute("CREATE TABLE d (day date)")
        db.execute("INSERT INTO d VALUES ('1998-01-31')")
        folded = "date '1998-01-31' + interval '1' month"
        assert db.query(f"SELECT {folded} FROM d").rows == db.query(
            "SELECT day + interval '1' month FROM d").rows == [
            (dt.date(1998, 2, 28),)]
        assert db.query("SELECT NULL + interval '1' month, "
                        "-(NULL + 1) FROM d").rows == [(None, None)]

    def test_function_calls_are_evaluated_per_row(self, db, monkeypatch):
        slept = []
        monkeypatch.setattr("time.sleep", slept.append)
        rows = db.query("SELECT sleep(0) + 1, -sleep(0) FROM emp").rows
        assert rows == [(1.0, -0.0)] * 5
        assert len(slept) == 10

    def test_scalar_functions(self, db):
        res = db.query("SELECT year(hired), upper(name) FROM emp "
                       "WHERE id = 3")
        assert res.rows == [(2019, "CAT")]


class TestJoins:
    def test_comma_join_with_where(self, db):
        res = db.query(
            "SELECT name, budget FROM emp, dept WHERE dept = dname "
            "ORDER BY name"
        )
        assert res.rows == [
            ("ann", 1000.0), ("bob", 1000.0), ("cat", 500.0),
            ("dan", 500.0),
        ]

    def test_explicit_join_on(self, db):
        res = db.query(
            "SELECT count(*) FROM emp JOIN dept ON dept = dname"
        )
        assert res.scalar() == 4

    def test_join_uses_hash_join_plan(self, db):
        plan = db.explain(
            "SELECT name FROM emp, dept WHERE dept = dname"
        )
        assert "HashJoin" in plan

    def test_cross_join_without_condition(self, db):
        res = db.query("SELECT count(*) FROM emp, dept")
        assert res.scalar() == 10

    def test_three_way_join(self, db):
        db.execute("CREATE TABLE loc (ldept text, city text)")
        db.execute("INSERT INTO loc VALUES ('eng', 'nyc'), ('ops', 'sfo')")
        res = db.query(
            "SELECT name, city FROM emp, dept, loc "
            "WHERE dept = dname AND dname = ldept AND salary > 85 "
            "ORDER BY name"
        )
        assert res.rows == [("ann", "nyc"), ("bob", "nyc")]

    def test_self_join_with_aliases(self, db):
        res = db.query(
            "SELECT a.name, b.name FROM emp a, emp b "
            "WHERE a.dept = b.dept AND a.id < b.id ORDER BY a.name"
        )
        assert res.rows == [("ann", "bob"), ("cat", "dan")]


class TestAggregation:
    def test_scalar_aggregates(self, db):
        res = db.query("SELECT count(*), sum(salary), min(salary), "
                       "max(salary), avg(salary) FROM emp")
        assert res.rows == [(5, 505.0, 80.0, 150.0, 101.0)]

    def test_group_by(self, db):
        res = db.query(
            "SELECT dept, count(*), avg(salary) FROM emp GROUP BY dept "
            "ORDER BY dept"
        )
        assert res.rows == [
            ("eng", 2, 95.0), ("mgmt", 1, 150.0), ("ops", 2, 82.5),
        ]

    def test_group_by_expression(self, db):
        res = db.query(
            "SELECT year(hired), count(*) FROM emp GROUP BY year(hired) "
            "ORDER BY 1"
        )
        assert res.rows[0] == (2018, 1)

    def test_having(self, db):
        res = db.query(
            "SELECT dept, count(*) FROM emp GROUP BY dept "
            "HAVING count(*) > 1 ORDER BY dept"
        )
        assert res.rows == [("eng", 2), ("ops", 2)]

    def test_having_on_unselected_aggregate(self, db):
        res = db.query(
            "SELECT dept FROM emp GROUP BY dept HAVING sum(salary) > 180"
        )
        assert sorted(r[0] for r in res) == ["eng"]

    def test_arithmetic_over_aggregates(self, db):
        res = db.query("SELECT sum(salary) / count(*) FROM emp")
        assert res.scalar() == pytest.approx(101.0)

    def test_array_agg(self, db):
        res = db.query(
            "SELECT dept, array_agg(name) FROM emp GROUP BY dept "
            "ORDER BY dept"
        )
        assert res.rows[0] == ("eng", ["ann", "bob"])

    def test_bare_column_outside_group_by_rejected(self, db):
        with pytest.raises(PlanningError, match="GROUP BY"):
            db.query("SELECT name, count(*) FROM emp GROUP BY dept")

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(PlanningError, match="WHERE"):
            db.query("SELECT name FROM emp WHERE sum(salary) > 10")

    def test_having_without_group_rejected(self, db):
        with pytest.raises(PlanningError):
            db.query("SELECT name FROM emp HAVING name = 'ann'")

    def test_count_distinct(self, db):
        res = db.query("SELECT count(DISTINCT dept) FROM emp")
        assert res.scalar() == 3


class TestSubqueries:
    def test_subquery_in_from(self, db):
        res = db.query(
            "SELECT dname, total FROM "
            "(SELECT dept AS d, sum(salary) AS total FROM emp GROUP BY dept)"
            " AS s, dept WHERE d = dname ORDER BY dname"
        )
        assert res.rows == [("eng", 190.0), ("ops", 165.0)]

    def test_in_subquery(self, db):
        res = db.query(
            "SELECT name FROM emp WHERE dept IN "
            "(SELECT dname FROM dept WHERE budget > 600)"
        )
        assert sorted(r[0] for r in res) == ["ann", "bob"]

    def test_not_in_subquery(self, db):
        res = db.query(
            "SELECT name FROM emp WHERE dept NOT IN "
            "(SELECT dname FROM dept)"
        )
        assert [r[0] for r in res] == ["eve"]

    def test_in_subquery_must_be_single_column(self, db):
        with pytest.raises(PlanningError, match="one column"):
            db.query(
                "SELECT name FROM emp WHERE dept IN "
                "(SELECT dname, budget FROM dept)"
            )

    def test_nested_subqueries(self, db):
        res = db.query(
            "SELECT count(*) FROM "
            "(SELECT id FROM emp WHERE id IN "
            " (SELECT id FROM emp WHERE salary > 85)) AS deep"
        )
        assert res.scalar() == 3


class TestResultAPI:
    def test_to_dicts(self, db):
        rows = db.query("SELECT id, name FROM emp WHERE id = 1").to_dicts()
        assert rows == [{"id": 1, "name": "ann"}]

    def test_column(self, db):
        names = db.query("SELECT name FROM emp ORDER BY id").column("name")
        assert names == ["ann", "bob", "cat", "dan", "eve"]

    def test_scalar_requires_1x1(self, db):
        with pytest.raises(ValueError):
            db.query("SELECT id, name FROM emp").scalar()

    def test_query_rejects_non_select(self, db):
        with pytest.raises(PlanningError):
            db.query("CREATE TABLE zz (a int)")

    def test_multiple_statements_returns_last(self):
        d = Database()
        res = d.execute(
            "CREATE TABLE t (a int); INSERT INTO t VALUES (1); "
            "SELECT count(*) FROM t"
        )
        assert isinstance(res, QueryResult)
        assert res.scalar() == 1

    def test_nulls_in_pipeline(self, db):
        db.execute("INSERT INTO emp VALUES (6, 'nul', 'eng', NULL, NULL)")
        res = db.query("SELECT count(salary), count(*) FROM emp")
        assert res.rows == [(5, 6)]
        res = db.query("SELECT name FROM emp WHERE salary IS NULL")
        assert res.rows == [("nul",)]
