"""Whole-system stress tests: mid-size data, every configuration axis.

These are the "does the assembled system hold together" checks: the same
workloads through every strategy configuration must agree; a mid-size
TPC-H run must stay internally consistent; and a mixed DDL/DML/query/
persistence session must survive end to end.
"""

import pytest

from repro.engine.database import Database
from repro.stats.chooser import ALL_STRATEGIES
from repro.workloads import queries as Q
from repro.workloads.checkins import brightkite
from repro.workloads.tpch import load_tpch


class TestStrategyConfigurationsAgree:
    @pytest.mark.parametrize("clause", ["JOIN-ANY", "ELIMINATE",
                                        "FORM-NEW-GROUP"])
    def test_all_strategies_same_sql_results(self, clause):
        data = brightkite(600).points()
        results = []
        for strategy in ALL_STRATEGIES:
            db = Database(sgb_all_strategy=strategy, tiebreak="first")
            db.execute("CREATE TABLE c (lat float, lon float)")
            db.insert("c", data)
            res = db.query(
                f"SELECT count(*) FROM c GROUP BY lat, lon "
                f"DISTANCE-TO-ALL L2 WITHIN 0.5 ON-OVERLAP {clause}"
            )
            results.append(sorted(r[0] for r in res))
        assert results[0] == results[1] == results[2]

    def test_any_strategies_same_sql_results(self):
        data = brightkite(600).points()
        results = []
        for strategy in ("all-pairs", "index", "grid"):
            db = Database(sgb_any_strategy=strategy)
            db.execute("CREATE TABLE c (lat float, lon float)")
            db.insert("c", data)
            res = db.query(
                "SELECT count(*) FROM c GROUP BY lat, lon "
                "DISTANCE-TO-ANY L2 WITHIN 0.5"
            )
            results.append(sorted(r[0] for r in res))
        assert results[0] == results[1] == results[2]


class TestTPCHConsistency:
    @pytest.fixture(scope="class")
    def db(self):
        return load_tpch(1.0, tiebreak="first")

    def test_sgb_member_counts_conserved(self, db):
        """Across overlap clauses, member accounting must balance: every
        qualifying input row lands in a group or (ELIMINATE only) nowhere."""
        totals = {}
        for clause in ("join-any", "form-new-group", "eliminate"):
            res = db.execute(Q.sgb1(eps=5000, on_overlap=clause))
            totals[clause] = sum(len(row[4]) for row in res)
        assert totals["join-any"] == totals["form-new-group"]
        assert totals["eliminate"] <= totals["join-any"]

    def test_sgb_any_coarsens_sgb_all(self, db):
        for eps in (2000, 20000):
            all_n = len(db.execute(Q.sgb1(eps=eps)))
            any_n = len(db.execute(Q.sgb2(eps=eps)))
            assert any_n <= all_n

    def test_group_count_monotone_in_eps(self, db):
        counts = [len(db.execute(Q.sgb2(eps=eps)))
                  for eps in (100, 10_000, 1_000_000)]
        assert counts[0] >= counts[1] >= counts[2]

    def test_huge_eps_single_group_covers_all_members(self, db):
        """With ε beyond the attribute spread, SGB forms one group whose
        member list is exactly the qualifying customer set."""
        plain = db.query(
            "SELECT count(*) FROM "
            "(SELECT o_custkey, sum(o_totalprice) AS tp FROM orders "
            " WHERE o_totalprice > 3000 GROUP BY o_custkey) r2, customer "
            "WHERE c_custkey = o_custkey AND c_acctbal > 100"
        ).scalar()
        res = db.execute(Q.sgb1(eps=1e12))
        assert len(res) == 1
        assert len(res.rows[0][4]) == plain

    def test_explain_analyze_runs_on_tpch(self, db):
        text = db.explain_analyze(Q.sgb3(eps=5000,
                                         on_overlap="eliminate"))
        assert "SimilarityGroupBy" in text
        assert "HashJoin" in text


class TestMixedSession:
    def test_full_lifecycle(self, tmp_path):
        from repro.engine.io import load_database, save_database

        db = Database(tiebreak="first")
        db.execute("""
            CREATE TABLE sensors (sid int, region text, x float, y float);
            CREATE INDEX idx_sid ON sensors (sid);
            INSERT INTO sensors VALUES
                (1, 'n', 0, 0), (2, 'n', 0.5, 0), (3, 'n', 9, 9),
                (4, 's', 0.2, 0), (5, 's', 8.8, 9.2)
        """)
        # similarity grouping partitioned by region
        res = db.query(
            "SELECT region, count(*) FROM sensors GROUP BY x, y "
            "DISTANCE-TO-ANY L2 WITHIN 1 PARTITION BY region "
            "ORDER BY region, 2 DESC"
        )
        assert res.rows == [("n", 2), ("n", 1), ("s", 1), ("s", 1)]
        # index lookup still works alongside
        assert db.query(
            "SELECT region FROM sensors WHERE sid = 4"
        ).scalar() == "s"
        # survive a save/load cycle and keep both capabilities
        save_database(db, str(tmp_path / "snap"))
        db2 = load_database(str(tmp_path / "snap"), tiebreak="first")
        res2 = db2.query(
            "SELECT region, count(*) FROM sensors GROUP BY x, y "
            "DISTANCE-TO-ANY L2 WITHIN 1 PARTITION BY region "
            "ORDER BY region, 2 DESC"
        )
        assert res2.rows == res.rows
        assert "IndexScan" in db2.explain(
            "SELECT region FROM sensors WHERE sid = 4"
        )
