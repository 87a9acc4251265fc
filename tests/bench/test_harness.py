"""Harness utility tests."""

import math

import pytest

from repro.bench.harness import (
    Report,
    fit_loglog_slope,
    normalize_points,
    time_call,
)


class TestTimeCall:
    def test_returns_result_and_positive_time(self):
        secs, result = time_call(lambda: sum(range(1000)))
        assert result == 499500
        assert secs >= 0


class TestNormalizePoints:
    def test_unit_square(self):
        pts = normalize_points([(0, 10), (5, 20), (10, 30)])
        assert pts[0] == (0.0, 0.0)
        assert pts[2] == (1.0, 1.0)
        assert pts[1] == (0.5, 0.5)

    def test_degenerate_dimension(self):
        pts = normalize_points([(5, 1), (5, 2)])
        assert pts == [(0.0, 0.0), (0.0, 1.0)]

    def test_empty(self):
        assert normalize_points([]) == []

    def test_all_values_in_unit_interval(self):
        import random

        rng = random.Random(2)
        raw = [(rng.uniform(-1000, 1000), rng.uniform(0, 1e6))
               for _ in range(100)]
        for p in normalize_points(raw):
            assert 0 <= p[0] <= 1 and 0 <= p[1] <= 1


class TestReport:
    def test_format_and_csv(self):
        r = Report("Table X", "demo", ["a", "b"], notes="note")
        r.add_row(a=1, b=0.5)
        r.add_row(a=2, b=None)
        text = r.format()
        assert "Table X — demo" in text
        assert "note" in text
        csv = r.to_csv()
        assert csv.splitlines()[0] == "a,b"
        assert csv.splitlines()[2] == "2,-"

    def test_csv_quotes_commas_in_column_names(self):
        import csv
        import io

        r = Report("Quality", "demo", ["eps", "ari(any,dbscan)"])
        r.add_row(**{"eps": 0.1, "ari(any,dbscan)": 0.9})
        r.add_row(**{"eps": 0.2, "ari(any,dbscan)": None})
        header, *rows = csv.reader(io.StringIO(r.to_csv()))
        assert header == ["eps", "ari(any,dbscan)"]
        assert len(rows) == 2
        assert all(len(row) == len(header) for row in rows)

    def test_column(self):
        r = Report("t", "t", ["a"])
        r.add_row(a=1)
        r.add_row(a=2)
        assert r.column("a") == [1, 2]

    def test_float_formatting(self):
        r = Report("t", "t", ["v"])
        r.add_row(v=0.000001)
        r.add_row(v=2.5)
        lines = r.format().splitlines()
        assert "1.000e-06" in lines[-2]
        assert "2.5" in lines[-1]


class TestAsciiChart:
    def make_report(self):
        r = Report("Fig X", "demo", ["eps", "fast", "slow"])
        r.add_row(eps=0.1, fast=0.001, slow=1.0)
        r.add_row(eps=0.2, fast=0.01, slow=10.0)
        return r

    def test_bars_scale_with_values(self):
        chart = self.make_report().ascii_chart("eps", ["fast", "slow"])
        lines = chart.splitlines()
        slow_bars = [l for l in lines if l.strip().startswith("slow")]
        fast_bars = [l for l in lines if l.strip().startswith("fast")]
        assert all(
            s.count("#") > f.count("#")
            for s, f in zip(slow_bars, fast_bars)
        )

    def test_log_scale_header(self):
        chart = self.make_report().ascii_chart("eps", ["fast"], log=True)
        assert "log scale" in chart
        chart = self.make_report().ascii_chart("eps", ["fast"], log=False)
        assert "linear scale" in chart

    def test_empty_report(self):
        r = Report("Fig Y", "empty", ["x", "y"])
        assert "no data" in r.ascii_chart("x", ["y"])

    def test_non_numeric_values_skipped(self):
        r = Report("Fig Z", "mixed", ["x", "y"])
        r.add_row(x=1, y=None)
        r.add_row(x=2, y=5.0)
        chart = r.ascii_chart("x", ["y"])
        assert "#" in chart


class TestLogLogSlope:
    def test_linear_growth(self):
        xs = [100, 200, 400, 800]
        ys = [x * 3.0 for x in xs]
        assert fit_loglog_slope(xs, ys) == pytest.approx(1.0)

    def test_quadratic_growth(self):
        xs = [100, 200, 400, 800]
        ys = [x * x / 1e6 for x in xs]
        assert fit_loglog_slope(xs, ys) == pytest.approx(2.0)

    def test_insufficient_points(self):
        assert math.isnan(fit_loglog_slope([1], [1]))
