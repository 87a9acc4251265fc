"""Similarity grouping over DATE attributes (ε measured in days)."""

import pytest

from repro.engine.database import Database
from repro.errors import ExecutionError


@pytest.fixture
def db():
    d = Database(tiebreak="first")
    d.execute("CREATE TABLE ev (name text, happened date, cost float)")
    d.execute(
        "INSERT INTO ev VALUES "
        "('a', '2020-01-01', 10.0), ('b', '2020-01-03', 12.0), "
        "('c', '2020-02-15', 11.0), ('d', '2020-02-16', 10.5), "
        "('e', '2020-06-01', 50.0)"
    )
    return d


class TestDateGrouping:
    def test_1d_segmentation_over_dates(self, db):
        res = db.query(
            "SELECT count(*), array_agg(name) FROM ev "
            "GROUP BY happened MAXIMUM-ELEMENT-SEPARATION 7"
        )
        groups = sorted(tuple(r[1]) for r in res)
        assert groups == [("a", "b"), ("c", "d"), ("e",)]

    def test_2d_date_and_cost(self, db):
        # (days, cost): eps 5 under L-inf groups events within 5 days AND
        # within 5 cost units of each other
        res = db.query(
            "SELECT count(*), array_agg(name) FROM ev "
            "GROUP BY happened, cost DISTANCE-TO-ALL LINF WITHIN 5"
        )
        groups = sorted(tuple(r[1]) for r in res)
        assert groups == [("a", "b"), ("c", "d"), ("e",)]

    def test_eps_in_days_boundary(self, db):
        # a and b are exactly 2 days apart
        res = db.query(
            "SELECT count(*) FROM ev GROUP BY happened "
            "DISTANCE-TO-ANY L2 WITHIN 2"
        )
        sizes = sorted(r[0] for r in res)
        assert sizes == [1, 2, 2]
        # below 2 days the a-b pair splits; only c-d (1 day apart) remain
        res = db.query(
            "SELECT count(*) FROM ev GROUP BY happened "
            "DISTANCE-TO-ANY L2 WITHIN 1.9"
        )
        assert sorted(r[0] for r in res) == [1, 1, 1, 2]

    def test_group_around_dates(self, db):
        res = db.query(
            "SELECT count(*), min(happened), max(happened) FROM ev "
            "GROUP BY happened, cost "
            "AROUND ((737455, 11), (737615, 50)) LINF WITHIN 60"
        )
        # centre 1 is 2020-01-31 (ordinal 737455) cost 11 — covers a-d
        # (within 60 days and cost 5); centre 2 is 2020-07-09 cost 50 —
        # covers e (within 38 days, cost 0)
        assert sorted(r[0] for r in res) == [1, 4]

    def test_text_attribute_still_rejected(self, db):
        with pytest.raises(ExecutionError, match="numeric"):
            db.query(
                "SELECT count(*) FROM ev GROUP BY name "
                "DISTANCE-TO-ANY L2 WITHIN 1"
            )
