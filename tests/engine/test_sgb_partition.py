"""PARTITION BY extension: similarity grouping within equality partitions."""

import random
from collections import Counter

import pytest

from repro.core.api import sgb_any
from repro.core.parallel import partition_seed
from repro.core.sgb_all import SGBAllOperator
from repro.core.sgb_any import SGBAnyOperator
from repro.engine.database import Database
from repro.errors import PlanningError
from repro.obs.metrics import SGB_COUNTER_FIELDS


@pytest.fixture
def db():
    d = Database(tiebreak="first")
    d.execute("CREATE TABLE c (city text, x float, y float, uid int)")
    d.insert("c", [
        ("nyc", 0.0, 0.0, 1), ("nyc", 0.5, 0.0, 2), ("nyc", 9.0, 9.0, 3),
        ("sfo", 0.0, 0.0, 4), ("sfo", 0.2, 0.0, 5),
    ])
    return d


class TestPartitionedSGB:
    def test_partitions_do_not_mix(self, db):
        res = db.query(
            "SELECT city, count(*) FROM c GROUP BY x, y "
            "DISTANCE-TO-ANY L2 WITHIN 1 PARTITION BY city"
        )
        got = sorted(res.rows)
        # nyc: {(0,0),(0.5,0)} and {(9,9)}; sfo: {(0,0),(0.2,0)}
        assert got == [("nyc", 1), ("nyc", 2), ("sfo", 2)]

    def test_without_partition_cities_merge(self, db):
        res = db.query(
            "SELECT count(*) FROM c GROUP BY x, y "
            "DISTANCE-TO-ANY L2 WITHIN 1"
        )
        assert sorted(r[0] for r in res) == [1, 4]

    def test_partition_key_selectable(self, db):
        res = db.query(
            "SELECT city, array_agg(uid) FROM c GROUP BY x, y "
            "DISTANCE-TO-ANY L2 WITHIN 1 PARTITION BY city"
        )
        for city, uids in res:
            assert city in ("nyc", "sfo")
            # members stay inside the partition
            if city == "nyc":
                assert set(uids) <= {1, 2, 3}
            else:
                assert set(uids) <= {4, 5}

    def test_partitioned_sgb_all_overlap_clause(self, db):
        res = db.query(
            "SELECT city, count(*) FROM c GROUP BY x, y "
            "DISTANCE-TO-ALL LINF WITHIN 1 ON-OVERLAP ELIMINATE "
            "PARTITION BY city"
        )
        assert sorted(res.rows) == [("nyc", 1), ("nyc", 2), ("sfo", 2)]

    def test_matches_manual_per_partition_runs(self, db):
        res = db.query(
            "SELECT city, count(*) FROM c GROUP BY x, y "
            "DISTANCE-TO-ANY L2 WITHIN 1 PARTITION BY city"
        )
        got = sorted(res.rows)
        expected = []
        for city, pts in [("nyc", [(0, 0), (0.5, 0), (9, 9)]),
                          ("sfo", [(0, 0), (0.2, 0)])]:
            for size in sgb_any(pts, 1, "l2").group_sizes():
                expected.append((city, size))
        assert got == sorted(expected)

    def test_multi_key_partition(self, db):
        db.execute("INSERT INTO c VALUES ('nyc', 0.0, 0.0, 6)")
        res = db.query(
            "SELECT city, uid, count(*) FROM c GROUP BY x, y "
            "DISTANCE-TO-ANY L2 WITHIN 1 PARTITION BY city, uid"
        )
        # every row is its own partition -> all singleton groups
        assert all(row[2] == 1 for row in res)
        assert len(res) == 6

    def test_non_partition_column_still_rejected(self, db):
        with pytest.raises(PlanningError, match="aggregate"):
            db.query(
                "SELECT uid, count(*) FROM c GROUP BY x, y "
                "DISTANCE-TO-ANY L2 WITHIN 1 PARTITION BY city"
            )

    def test_partition_with_having_and_order(self, db):
        res = db.query(
            "SELECT city, count(*) AS n FROM c GROUP BY x, y "
            "DISTANCE-TO-ANY L2 WITHIN 1 PARTITION BY city "
            "HAVING count(*) > 1 ORDER BY city"
        )
        assert res.rows == [("nyc", 2), ("sfo", 2)]

    def test_null_partition_key_is_its_own_partition(self, db):
        db.execute("INSERT INTO c VALUES (NULL, 0.0, 0.0, 7)")
        res = db.query(
            "SELECT city, count(*) FROM c GROUP BY x, y "
            "DISTANCE-TO-ANY L2 WITHIN 1 PARTITION BY city"
        )
        assert (None, 1) in res.rows


def partition_rows():
    """240 rows in 3 interleaved partitions ``k`` of points in [0, 4]²."""
    rng = random.Random(5)
    return [(i % 3, rng.uniform(0, 4), rng.uniform(0, 4)) for i in range(240)]


def partition_counters(clause, **db_kwargs):
    """EXPLAIN ANALYZE counters of one 240-row, 3-partition query."""
    rows = partition_rows()
    db = Database(**db_kwargs)
    db.execute("CREATE TABLE p (k int, x float, y float)")
    db.insert("p", rows)
    return db.analyze(
        f"SELECT k, count(*) FROM p GROUP BY x, y {clause} PARTITION BY k"
    ).node_counters()


class TestPartitionCounters:
    """Each partition's operator counts into its own struct and hands it
    to the node's bag once, at ``finalize``, so EXPLAIN ANALYZE reports
    the totals over every partition, FORM-NEW-GROUP's regroup probes
    included."""

    @pytest.mark.parametrize("clause", ["DISTANCE-TO-ANY LINF WITHIN 0.4",
                                        "DISTANCE-TO-ALL L2 WITHIN 0.4 "
                                        "ON-OVERLAP ELIMINATE",
                                        "DISTANCE-TO-ALL L2 WITHIN 0.4 "
                                        "ON-OVERLAP FORM-NEW-GROUP"],
                             ids=["any", "eliminate", "form-new-group"])
    def test_counters_sum_over_partitions(self, clause):
        counters = partition_counters(clause)
        assert counters["points"] == 240
        if "FORM-NEW-GROUP" in clause:
            assert counters["index_probes"] > 240  # the regroup passes
        else:
            assert counters["index_probes"] == 240

    @pytest.mark.parametrize("clause", ["JOIN-ANY", "ELIMINATE",
                                        "FORM-NEW-GROUP"])
    def test_graph_counters_sum_over_partitions(self, clause):
        # ``graph`` places every point once per pass (index_probes), tallies
        # its placed neighbours (candidates) and charges the join's
        # predicate evaluations (distance_computations).
        counters = partition_counters(
            f"DISTANCE-TO-ALL L2 WITHIN 0.4 ON-OVERLAP {clause}",
            sgb_all_strategy="graph")
        assert counters["candidates"] > 0
        assert counters["distance_computations"] > 0
        if clause == "FORM-NEW-GROUP":
            assert counters["index_probes"] > 240
        else:
            assert counters["index_probes"] == 240


SGB_CASES = [
    *[("all", clause, strategy)
      for clause in ("join-any", "eliminate", "form-new-group")
      for strategy in ("graph", "index")],
    ("any", None, "grid"),
    ("any", None, "index"),
]


class TestNodeCountersAreTheOperators:
    """The SGB node's counters are its operators' own ``stats``, summed
    over partitions: a collecting node switches distance counting on and
    folds each finalized operator's struct into its bag, nothing more."""

    @pytest.mark.parametrize("mode,clause,strategy", SGB_CASES)
    def test_node_counters_equal_the_direct_operators(self, mode, clause,
                                                      strategy):
        seed = 7
        if mode == "all":
            sql_clause = (f"DISTANCE-TO-ALL L2 WITHIN 0.4 "
                          f"ON-OVERLAP {clause.upper()}")
            db_kwargs = dict(sgb_all_strategy=strategy, seed=seed)
        else:
            sql_clause = "DISTANCE-TO-ANY L2 WITHIN 0.4"
            db_kwargs = dict(sgb_any_strategy=strategy, seed=seed)
        got = partition_counters(sql_clause, **db_kwargs)

        rows = partition_rows()
        expected = Counter()
        for k in dict.fromkeys(row[0] for row in rows):  # first-seen order
            points = [(x, y) for key, x, y in rows if key == k]
            if mode == "all":
                op = SGBAllOperator(0.4, "l2", clause, strategy,
                                    seed=partition_seed(seed, (k,)),
                                    count_distance_computations=True)
            else:
                op = SGBAnyOperator(0.4, "l2", strategy,
                                    count_distance_computations=True)
            op.add_many(points).finalize()
            expected.update(op.stats.nonzero())

        assert expected["distance_computations"] > 0
        assert {c: got.get(c, 0) for c in SGB_COUNTER_FIELDS} == \
            {c: expected[c] for c in SGB_COUNTER_FIELDS}
        assert got["rows_spooled"] == 240
