"""SGB-Any answers over the wire, not just in process.

``np.int64(3) == 3`` passes every in-process comparison, while the wire
refuses to serialize it and the client sees a failed request: a result
row or a counter built from a numpy scalar is
invisible to the rest of the suite.  These tests run the planner's batch
default (``grid``, a vectorized join under the numpy backend) through a
real server and compare with the all-pairs scan.
"""

import json

import pytest

from repro.engine.database import Database
from repro.service import ServerThread, ServiceClient
from repro.workloads import queries as Q
from repro.workloads.checkins import gowalla

N_ROWS = 800
EPS_VALUES = [0.05, 0.1, 0.2]


def make_db(**kwargs) -> Database:
    db = Database(**kwargs)
    gowalla(N_ROWS).populate(db)
    db.update_statistics()
    return db


def partitioned(eps: float) -> str:
    return (
        "SELECT user_id % 3, count(*) AS n FROM checkins "
        "GROUP BY latitude, longitude "
        f"DISTANCE-TO-ANY L2 WITHIN {eps} PARTITION BY user_id % 3"
    )


@pytest.fixture(scope="module")
def server():
    with ServerThread(db=make_db()) as s:
        yield s


@pytest.fixture(scope="module")
def oracle():
    return make_db(sgb_any_strategy="all-pairs")


@pytest.mark.parametrize("eps", EPS_VALUES)
def test_checkin_sgb_any_over_the_wire(server, oracle, eps):
    sql = Q.checkin_sgb_any(eps)
    with ServiceClient(port=server.port) as client:
        assert "strategy=auto" in client.explain(sql)
        plan = client.execute("EXPLAIN ANALYZE " + sql).rows
        assert "strategy=grid/auto" in "\n".join(r[0] for r in plan)
        rows = client.query(sql).rows
    assert sorted(rows) == sorted(oracle.query(sql).rows)
    assert all(type(v) is int for row in rows for v in row)
    assert sum(n for (n,) in rows) == N_ROWS


@pytest.mark.parametrize("eps", EPS_VALUES)
def test_analyze_metrics_are_plain_json(server, eps):
    analyzed = server.db.analyze(Q.checkin_sgb_any(eps))
    tree = json.loads(analyzed.metrics_json())
    assert tree
    counters = analyzed.node_counters()
    assert counters["points"] == counters["index_probes"] == N_ROWS
    assert all(type(v) in (int, float) for v in counters.values())


def test_partitioned_matches_all_pairs(server, oracle):
    with ServiceClient(port=server.port) as client:
        for eps in EPS_VALUES:
            sql = partitioned(eps)
            rows = client.query(sql).rows
            assert sorted(rows) == sorted(oracle.query(sql).rows)
            assert all(type(v) is int for row in rows for v in row)
