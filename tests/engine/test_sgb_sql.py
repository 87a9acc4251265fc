"""Similarity GROUP BY through the full SQL stack (paper §8.2 integration).

Cross-checks the SGB executor node against the array-level operators, and
exercises the similarity clause composed with WHERE / joins / HAVING /
ORDER BY — the composability argument the paper makes against standalone
clustering.
"""

import re

import pytest

from repro.core.api import sgb_all, sgb_any
from repro.engine.database import Database
from repro.errors import ExecutionError, InvalidParameterError, PlanningError
from repro.stats.chooser import ALL_STRATEGIES

POINTS = [(1, 6), (2, 7), (6, 4), (7, 5), (4, 5.5)]  # paper Example 1


@pytest.fixture
def db():
    d = Database(tiebreak="first")
    d.execute("CREATE TABLE pts (pid int, x float, y float, tag text)")
    d.insert("pts", [
        (i, x, y, "odd" if i % 2 else "even")
        for i, (x, y) in enumerate(POINTS)
    ])
    return d


class TestBasicSGBQueries:
    def test_sgb_any_counts(self, db):
        res = db.query(
            "SELECT count(*) FROM pts GROUP BY x, y "
            "DISTANCE-TO-ANY LINF WITHIN 3"
        )
        assert sorted(r[0] for r in res) == [5]

    @pytest.mark.parametrize("clause,expected", [
        ("JOIN-ANY", [2, 3]),
        ("ELIMINATE", [2, 2]),
        ("FORM-NEW-GROUP", [1, 2, 2]),
    ])
    def test_sgb_all_overlap_clauses(self, db, clause, expected):
        res = db.query(
            f"SELECT count(*) FROM pts GROUP BY x, y "
            f"DISTANCE-TO-ALL LINF WITHIN 3 ON-OVERLAP {clause}"
        )
        assert sorted(r[0] for r in res) == expected

    def test_aggregates_over_groups(self, db):
        res = db.query(
            "SELECT count(*), min(pid), array_agg(pid) FROM pts "
            "GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 3 "
            "ON-OVERLAP ELIMINATE"
        )
        rows = sorted(res.rows)
        assert rows == [(2, 0, [0, 1]), (2, 2, [2, 3])]

    def test_st_polygon_aggregate(self, db):
        res = db.query(
            "SELECT st_polygon(x, y), count(*) FROM pts GROUP BY x, y "
            "DISTANCE-TO-ANY LINF WITHIN 3"
        )
        polygon, n = res.rows[0]
        assert n == 5
        assert polygon.area() > 0

    def test_eps_constant_expression(self, db):
        res = db.query(
            "SELECT count(*) FROM pts GROUP BY x, y "
            "DISTANCE-TO-ANY LINF WITHIN 1.5 * 2"
        )
        assert sorted(r[0] for r in res) == [5]


class TestCrossCheckArrayAPI:
    def test_matches_sgb_all_operator(self, db):
        for clause in ("join-any", "eliminate", "form-new-group"):
            res = db.query(
                f"SELECT count(*) FROM pts GROUP BY x, y "
                f"DISTANCE-TO-ALL L2 WITHIN 3 ON-OVERLAP {clause.upper()}"
            )
            expected = sgb_all(POINTS, 3, "l2", clause, "index",
                               tiebreak="first")
            assert sorted(r[0] for r in res) == sorted(
                len(m) for m in expected.groups().values()
            )

    def test_matches_sgb_any_operator(self, db):
        res = db.query(
            "SELECT count(*) FROM pts GROUP BY x, y "
            "DISTANCE-TO-ANY L2 WITHIN 2"
        )
        expected = sgb_any(POINTS, 2, "l2")
        assert sorted(r[0] for r in res) == sorted(
            len(m) for m in expected.groups().values()
        )

    def test_strategy_configuration_respected(self):
        for strategy in ALL_STRATEGIES:
            d = Database(sgb_all_strategy=strategy, tiebreak="first")
            d.execute("CREATE TABLE p (x float, y float)")
            d.insert("p", POINTS)
            res = d.query(
                "SELECT count(*) FROM p GROUP BY x, y "
                "DISTANCE-TO-ALL LINF WITHIN 3 ON-OVERLAP ELIMINATE"
            )
            assert sorted(r[0] for r in res) == [2, 2]


class TestComposability:
    def test_where_before_similarity_grouping(self, db):
        res = db.query(
            "SELECT count(*) FROM pts WHERE pid < 4 GROUP BY x, y "
            "DISTANCE-TO-ANY LINF WITHIN 3"
        )
        # without the bridge point a5, two separate components remain
        assert sorted(r[0] for r in res) == [2, 2]

    def test_having_over_sgb(self, db):
        res = db.query(
            "SELECT count(*) FROM pts GROUP BY x, y "
            "DISTANCE-TO-ALL LINF WITHIN 3 ON-OVERLAP FORM-NEW-GROUP "
            "HAVING count(*) > 1"
        )
        assert sorted(r[0] for r in res) == [2, 2]

    def test_order_by_aggregate(self, db):
        res = db.query(
            "SELECT count(*) AS n FROM pts GROUP BY x, y "
            "DISTANCE-TO-ALL LINF WITHIN 3 ON-OVERLAP FORM-NEW-GROUP "
            "ORDER BY n DESC"
        )
        assert [r[0] for r in res] == [2, 2, 1]

    def test_similarity_over_join_output(self, db):
        db.execute("CREATE TABLE weights (wid int, w float)")
        db.insert("weights", [(i, float(i)) for i in range(5)])
        res = db.query(
            "SELECT count(*), sum(w) FROM pts, weights WHERE pid = wid "
            "GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 3 "
            "ON-OVERLAP ELIMINATE"
        )
        assert sorted(res.rows) == [(2, 1.0), (2, 5.0)]

    def test_similarity_over_subquery(self, db):
        res = db.query(
            "SELECT count(*) FROM "
            "(SELECT x * 2 AS xx, y * 2 AS yy FROM pts) AS doubled "
            "GROUP BY xx, yy DISTANCE-TO-ANY LINF WITHIN 6"
        )
        assert sorted(r[0] for r in res) == [5]


class TestErrorsAndEdgeCases:
    def test_raw_grouping_column_rejected(self, db):
        with pytest.raises(PlanningError, match="aggregate"):
            db.query(
                "SELECT x FROM pts GROUP BY x, y "
                "DISTANCE-TO-ANY L2 WITHIN 1"
            )

    def test_select_without_aggregates_rejected(self, db):
        with pytest.raises(PlanningError, match="aggregate"):
            db.query(
                "SELECT 1 FROM pts GROUP BY x, y "
                "DISTANCE-TO-ANY L2 WITHIN 1"
            )

    def test_non_constant_eps_rejected(self, db):
        with pytest.raises(PlanningError, match="constant"):
            db.query(
                "SELECT count(*) FROM pts GROUP BY x, y "
                "DISTANCE-TO-ANY L2 WITHIN x"
            )

    def test_non_numeric_threshold_rejected(self, db):
        with pytest.raises(PlanningError, match="numeric"):
            db.query(
                "SELECT count(*) FROM pts GROUP BY x, y "
                "DISTANCE-TO-ANY L2 WITHIN 'wide'"
            )

    def test_non_numeric_grouping_attribute_rejected(self, db):
        with pytest.raises(ExecutionError, match="numeric"):
            db.query(
                "SELECT count(*) FROM pts GROUP BY tag, x "
                "DISTANCE-TO-ANY L2 WITHIN 1"
            )

    def test_empty_input_no_groups(self):
        d = Database()
        d.execute("CREATE TABLE p (x float, y float)")
        res = d.query(
            "SELECT count(*) FROM p GROUP BY x, y "
            "DISTANCE-TO-ANY L2 WITHIN 1"
        )
        assert res.rows == []

    def test_three_grouping_attributes(self):
        d = Database()
        d.execute("CREATE TABLE p3 (x float, y float, z float)")
        d.insert("p3", [(0, 0, 0), (1, 1, 1), (9, 9, 9)])
        res = d.query(
            "SELECT count(*) FROM p3 GROUP BY x, y, z "
            "DISTANCE-TO-ALL LINF WITHIN 1.5"
        )
        assert sorted(r[0] for r in res) == [1, 2]

    ZERO_EPS_SQL = ("SELECT count(*) FROM p GROUP BY x, y "
                    "DISTANCE-TO-ALL L2 WITHIN 0")

    @staticmethod
    def _zero_eps_db(strategy):
        d = Database(sgb_all_strategy=strategy, tiebreak="first")
        d.execute("CREATE TABLE p (x float, y float)")
        d.insert("p", [(i % 7, i % 5) for i in range(300)])
        d.execute("ANALYZE p")
        return d

    def test_forced_graph_refuses_zero_eps(self):
        with pytest.raises(InvalidParameterError, match="eps > 0"):
            self._zero_eps_db("graph").query(self.ZERO_EPS_SQL)

    def test_auto_never_picks_graph_at_zero_eps(self):
        d = self._zero_eps_db("auto")
        plan = d.explain_analyze(self.ZERO_EPS_SQL)
        ran = re.search(r"strategy=([a-z,-]+)/auto", plan)
        assert ran and "graph" not in ran.group(1).split(","), plan
        assert (sorted(d.query(self.ZERO_EPS_SQL).rows)
                == sorted(self._zero_eps_db("all-pairs")
                          .query(self.ZERO_EPS_SQL).rows))

    def test_explain_shows_sgb_node(self, db):
        plan = db.explain(
            "SELECT count(*) FROM pts GROUP BY x, y "
            "DISTANCE-TO-ALL L2 WITHIN 3 ON-OVERLAP ELIMINATE"
        )
        assert "SimilarityGroupBy" in plan
        assert "eliminate" in plan
