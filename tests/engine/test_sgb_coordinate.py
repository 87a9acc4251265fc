"""Grouping-attribute coordinate mapping: typed errors and Decimal support.

Regression tests for the SGB006 taxonomy fix: ``grouping_coordinate``
used to raise a bare ``TypeError`` for non-numeric grouping values,
escaping the ``ReproError`` contract that shells and services rely on to
keep serving.
"""

import datetime
from decimal import Decimal

import pytest

from repro.engine.database import Database
from repro.engine.executor.sgb import grouping_coordinate
from repro.errors import ExecutionError, InvalidCoordinateError, ReproError
from repro.stats.chooser import ANY_STRATEGIES


class TestCoordinate:
    def test_numeric_passthrough(self):
        assert grouping_coordinate(3) == 3.0
        assert grouping_coordinate(2.5) == 2.5

    def test_decimal_is_numeric(self):
        assert grouping_coordinate(Decimal("1.25")) == 1.25

    def test_date_maps_to_ordinal_days(self):
        d = datetime.date(2020, 1, 8)
        week_before = datetime.date(2020, 1, 1)
        assert grouping_coordinate(d) - grouping_coordinate(week_before) == 7.0

    def test_bool_rejected_with_execution_error(self):
        with pytest.raises(ExecutionError, match="not a numeric"):
            grouping_coordinate(True)

    def test_text_rejected_with_execution_error(self):
        with pytest.raises(ExecutionError, match="not a numeric"):
            grouping_coordinate("abc")

    def test_none_rejected_with_execution_error(self):
        with pytest.raises(ExecutionError):
            grouping_coordinate(None)

    def test_error_stays_inside_taxonomy(self):
        # callers catching the documented family must see the failure
        with pytest.raises(ReproError):
            grouping_coordinate(object())


class TestEndToEnd:
    def test_text_grouping_column_raises_typed_error(self):
        db = Database()
        db.execute("CREATE TABLE t (s text)")
        db.insert("t", [("a",), ("b",)])
        with pytest.raises(ReproError):
            db.query(
                "SELECT count(*) FROM t GROUP BY s DISTANCE-TO-ANY WITHIN 1"
            )


SGB_ANY_SQL = "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5"


def _db_with(row, **kwargs):
    db = Database(**kwargs)
    db.execute("CREATE TABLE t (x float, y float)")
    db.insert("t", [(0.1, 0.2), (0.2, 0.2), row])
    return db


class TestUnrepresentableCoordinates:
    """NaN / ±inf / cell-overflow coordinates fail with the typed error,
    whatever strategy the query runs (they used to die at plan time with
    a bare ValueError from the ANALYZE histogram, or with a bare
    OverflowError inside the grid)."""

    @pytest.mark.parametrize("strategy", ("auto",) + ANY_STRATEGIES)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_rejected_by_query(self, strategy, bad):
        db = _db_with((bad, 0.2), sgb_any_strategy=strategy)
        with pytest.raises(InvalidCoordinateError):
            db.query(SGB_ANY_SQL)

    def test_non_finite_column_still_plans_other_queries(self):
        db = _db_with((float("nan"), 0.2))
        db.execute("ANALYZE")
        assert db.query("SELECT count(*) FROM t WHERE y < 1").rows == [(3,)]
        hist = db.table("t").stats.column("x").histogram
        assert sum(hist.counts) == 2  # the NaN falls in no bucket

    def test_cell_overflow_rejected_by_grid_only(self):
        # 1e308 // 0.5 overflows a float; the R-tree and the scan have no
        # cells and answer.
        with pytest.raises(InvalidCoordinateError):
            _db_with((1e308, 0.2), sgb_any_strategy="grid").query(SGB_ANY_SQL)
        for strategy in ("index", "all-pairs"):
            db = _db_with((1e308, 0.2), sgb_any_strategy=strategy)
            assert sorted(db.query(SGB_ANY_SQL).rows) == [(1,), (2,)]
