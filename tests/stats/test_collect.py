"""Unit tests for the ANALYZE pass (repro.stats.collect)."""

import datetime

import pytest

from repro.engine.database import Database
from repro.stats.collect import DensityHistogram, analyze_table
from tests.conftest import connected_components


@pytest.fixture
def db():
    return Database()


def _table(db, ddl, name, rows):
    db.execute(ddl)
    t = db.table(name)
    t.insert_many(rows)
    return t


class TestAnalyzeTable:
    def test_row_and_column_basics(self, db):
        t = _table(db, "CREATE TABLE t (x int, s text)", "t",
                   [(1, "a"), (2, "b"), (2, None), (None, "c")])
        stats = analyze_table(t)
        assert stats.table == "t"
        assert stats.row_count == 4
        x = stats.column("x")
        assert x.ndv == 2
        assert x.null_count == 1
        assert x.min_value == 1 and x.max_value == 2
        s = stats.column("s")
        assert s.ndv == 3
        assert s.null_count == 1
        assert s.histogram is None  # text has no density histogram

    def test_numeric_column_gets_histogram(self, db):
        t = _table(db, "CREATE TABLE t (x float)", "t",
                   [(float(i),) for i in range(100)])
        stats = analyze_table(t)
        hist = stats.column("x").histogram
        assert hist is not None
        assert hist.n == 100
        assert hist.lo == 0.0 and hist.hi == 99.0

    @pytest.mark.parametrize("rows", [[0.0, 2.225073858507e-311],
                                      [2.225073858507e-311, 0.0]])
    def test_denormal_spread_is_one_point(self, db, rows):
        # buckets / (hi - lo) overflows to inf; the bucket index was then
        # int(inf) or int(0 * inf) — Hypothesis found both through
        # tests/engine/test_sql_properties.py.
        t = _table(db, "CREATE TABLE t (x float)", "t", [(v,) for v in rows])
        hist = analyze_table(t).column("x").histogram
        assert hist.n == 2 and hist.lo == hist.hi == 0.0

    @pytest.mark.parametrize("strategy", ["auto", "all-pairs", "index",
                                          "grid"])
    def test_overflowing_spread_plans_and_groups(self, strategy):
        # hi - lo is inf, so the scale was 0 and (c - lo) * scale NaN:
        # ANALYZE, a WHERE the planner estimates and an SGB query all
        # raised a bare ValueError from int(NaN).
        rows = [(-1.7e308, 0.0), (1e308, 0.5), (0.0, 0.0), (0.5, 0.5),
                (2.0, 2.0), (1e308, 1.0)]
        db = Database(sgb_any_strategy=strategy)
        db.execute("CREATE TABLE t (x float, y float)")
        db.insert("t", rows)
        db.execute("ANALYZE t")
        hist = db.table("t").stats.column("x").histogram
        assert hist.n == len(rows) and hist.width == 0.0
        assert db.query("SELECT count(*) FROM t WHERE x > 0").rows == [(4,)]
        got = db.query("SELECT count(*), min(x), min(y) FROM t "
                       "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1").rows
        want = [(len(c), min(rows[i][0] for i in c),
                 min(rows[i][1] for i in c))
                for c in connected_components(rows, 1.0, "l2")]
        assert sorted(got) == sorted(want)

    def test_date_column_uses_ordinal_coordinates(self, db):
        base = datetime.date(2020, 1, 1)
        t = _table(db, "CREATE TABLE t (d date)", "t",
                   [(base + datetime.timedelta(days=i),) for i in range(10)])
        stats = analyze_table(t)
        d = stats.column("d")
        assert d.histogram is not None
        assert d.histogram.hi - d.histogram.lo == 9.0

    def test_empty_table(self, db):
        t = _table(db, "CREATE TABLE t (x int)", "t", [])
        stats = analyze_table(t)
        assert stats.row_count == 0
        assert stats.column("x").ndv == 0

    def test_eq_selectivity_uniform(self, db):
        t = _table(db, "CREATE TABLE t (x int)", "t",
                   [(i % 10,) for i in range(100)])
        stats = analyze_table(t)
        assert stats.column("x").eq_selectivity() == pytest.approx(0.1)

    def test_summary_lines_mention_every_column(self, db):
        t = _table(db, "CREATE TABLE t (x int, s text)", "t", [(1, "a")])
        lines = analyze_table(t).summary_lines()
        assert lines[0].startswith("t: 1 rows")
        assert any(line.strip().startswith("x (int)") for line in lines)
        assert any(line.strip().startswith("s (text)") for line in lines)


class TestDensityHistogram:
    def test_fraction_between_uniform(self):
        hist = DensityHistogram(0.0, 100.0, [10] * 10)
        assert hist.fraction_between(0.0, 50.0) == pytest.approx(0.5)
        assert hist.fraction_between(None, None) == pytest.approx(1.0)
        assert hist.fraction_between(200.0, 300.0) == 0.0

    def test_eps_fraction_uniform(self):
        # uniform on [0, 100]: a +-5 window holds ~10% of the mass
        hist = DensityHistogram(0.0, 100.0, [100] * 20)
        assert hist.eps_fraction(5.0) == pytest.approx(0.1, rel=0.25)

    def test_eps_fraction_density_weighted(self):
        # all mass in one bucket: any eps covers everything nearby
        counts = [0] * 10
        counts[4] = 100
        clustered = DensityHistogram(0.0, 100.0, counts)
        uniform = DensityHistogram(0.0, 100.0, [10] * 10)
        assert clustered.eps_fraction(5.0) > uniform.eps_fraction(5.0)

    def test_degenerate_single_value(self):
        hist = DensityHistogram(7.0, 7.0, [5])
        assert hist.eps_fraction(0.1) == 1.0
        assert hist.fraction_between(7.0, 7.0) == 1.0


class TestTableStatsCaching:
    def test_analyze_caches_and_truncate_clears(self, db):
        t = _table(db, "CREATE TABLE t (x int)", "t", [(1,), (2,)])
        stats = t.analyze()
        assert t.stats is stats
        t.truncate()
        assert t.stats is None

    def test_active_stats_refreshes_when_stale(self, db):
        t = _table(db, "CREATE TABLE t (x int)", "t", [(i,) for i in range(20)])
        t.analyze()
        assert t.active_stats().row_count == 20
        # below the staleness threshold: cached snapshot is kept
        t.insert((100,))
        assert t.active_stats().row_count == 20
        # blow past the threshold row by row: refresh on next access
        for i in range(30):
            t.insert((i,))
        assert t.active_stats().row_count == len(t)

    def test_bulk_load_auto_analyzes_stale_stats(self, db):
        t = _table(db, "CREATE TABLE t (x int)", "t", [(1,), (2,)])
        t.analyze()
        t.insert_many([(i,) for i in range(50)])
        assert t.stats.row_count == 52  # refreshed by the bulk load

    def test_bulk_load_without_prior_stats_stays_lazy(self, db):
        t = _table(db, "CREATE TABLE t (x int)", "t", [])
        t.insert_many([(i,) for i in range(50)])
        assert t.stats is None
