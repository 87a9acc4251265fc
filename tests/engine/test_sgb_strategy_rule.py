"""One strategy rule for SQL and the array API.

``"auto"`` resolves at run time, per partition, through
:func:`repro.core.parallel.resolve_strategy`: the chooser ranks each
partition at its own size, so one statement can run different strategies
in different partitions.  EXPLAIN ANALYZE names each distinct strategy
that ran, in partition order.  Every strategy gives the same groups, so
the answers equal a forced all-pairs run.
"""

import random
import re

import pytest

from repro.core import parallel
from repro.core.api import sgb_all, sgb_any
from repro.core.parallel import resolve_strategy
from repro.engine.database import Database
from repro.stats.chooser import SMALL_INPUT

ENTRY_POINTS = {"any": sgb_any, "all": sgb_all}
OPERATORS = {"any": "SGBAnyOperator", "all": "SGBAllOperator"}
#: The pick for the one partition above SMALL_INPUT points.
BIG_PICK = {"any": "grid", "all": "graph"}
CLAUSE = {"any": "DISTANCE-TO-ANY", "all": "DISTANCE-TO-ALL"}


def _partitioned_rows():
    """One partition of 400 points, then two at or below 128."""
    rng = random.Random(11)
    rows = []
    for key, n in (("big", 400), ("a", 60), ("b", SMALL_INPUT)):
        rows += [(key, rng.uniform(0, 10), rng.uniform(0, 10))
                 for _ in range(n)]
    return rows


def _db(rows, **kwargs):
    db = Database(tiebreak="first", **kwargs)
    db.execute("CREATE TABLE p (k text, x float, y float)")
    db.insert("p", rows)
    db.execute("ANALYZE p")
    return db


def _ran(plan_text, source="auto"):
    """The strategies an EXPLAIN ANALYZE says the SGB node ran."""
    match = re.search(rf"strategy=([a-z,-]+)/{source}\b", plan_text)
    assert match, plan_text
    return match.group(1).split(",")


@pytest.mark.parametrize("mode", ["any", "all"])
class TestPerPartition:
    def test_sql_partitions_run_their_own_pick(self, mode):
        rows = _partitioned_rows()
        sql = (f"SELECT k, count(*), min(x) FROM p GROUP BY x, y "
               f"{CLAUSE[mode]} L2 WITHIN 0.3 PARTITION BY k")
        db = _db(rows)
        assert "strategy=auto" in db.explain(sql)
        assert _ran(db.explain_analyze(sql)) == [BIG_PICK[mode], "all-pairs"]
        forced = _db(rows, **{f"sgb_{mode}_strategy": "all-pairs"})
        assert _ran(forced.explain_analyze(sql), "flag") == ["all-pairs"]
        assert db.query(sql).rows == forced.query(sql).rows

    def test_array_partitions_run_their_own_pick(self, monkeypatch, mode):
        rows = _partitioned_rows()
        keys = [k for k, _x, _y in rows]
        pts = [(x, y) for _k, x, y in rows]
        real = getattr(parallel, OPERATORS[mode])
        seen = []

        def recording(**op_kwargs):
            seen.append(op_kwargs["strategy"])
            return real(**op_kwargs)

        monkeypatch.setattr(parallel, OPERATORS[mode], recording)
        fn = ENTRY_POINTS[mode]
        kwargs = {"partitions": keys}
        if mode == "all":
            kwargs["tiebreak"] = "first"
        labels = fn(pts, 0.3, **kwargs).labels
        assert seen == [BIG_PICK[mode], "all-pairs", "all-pairs"]
        assert labels == fn(pts, 0.3, strategy="all-pairs", **kwargs).labels


class TestResolveStrategy:
    def test_a_strategy_name_is_returned_as_given(self):
        kwargs = {"eps": 0.5, "strategy": "index"}
        assert resolve_strategy("any", [(0.0, 0.0)] * 500, kwargs) is kwargs

    def test_a_known_fraction_lifts_the_worst_case_guard(self):
        # 1500 points: unknown density assumes every pair an edge, past
        # the ε-graph's bound; a sparse fraction (k = 0.15) is under it.
        pts = [(float(i), 0.0) for i in range(1500)]
        auto = {"eps": 0.5, "strategy": "auto"}
        assert resolve_strategy("all", pts, auto)["strategy"] != "graph"
        sparse = resolve_strategy("all", pts, auto, eps_fraction=1e-4)
        assert sparse["strategy"] == "graph"
        assert auto["strategy"] == "auto"  # the caller's dict is kept


class TestGraphMemoryGuard:
    """4000 uniform points in the unit square at ε 0.2 have ~500
    ε-neighbours a point: 2M directed edges, past the ε-graph's bound,
    whether or not statistics say so."""

    SQL = ("SELECT count(*) FROM {} GROUP BY x, y "
           "DISTANCE-TO-ALL L2 WITHIN 0.2")

    @pytest.fixture(scope="class")
    def points(self):
        rng = random.Random(7)
        return [(rng.random(), rng.random()) for _ in range(4000)]

    def test_sql_with_and_without_statistics(self, points):
        db = Database()
        db.execute("CREATE TABLE p (x float, y float)")
        db.insert("p", points)
        db.execute("ANALYZE p")
        for source in ("p", "(SELECT x, y FROM p) AS s"):
            ran = _ran(db.explain_analyze(self.SQL.format(source)))
            assert "graph" not in ran, source

    def test_array_api(self, monkeypatch, points):
        from repro.core import api

        seen = []
        real = api.SGBAllOperator

        def recording(**op_kwargs):
            seen.append(op_kwargs["strategy"])
            return real(**op_kwargs)

        monkeypatch.setattr(api, "SGBAllOperator", recording)
        sgb_all(points, 0.2)
        assert seen and seen[0] != "graph"
