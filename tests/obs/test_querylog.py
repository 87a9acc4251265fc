"""Query log: fingerprints, drift detection, JSONL round-trip, CLI.

The log reads the run's ``plan_metrics`` record, never a plan node, so
every case here feeds it through :func:`record_of`.
"""

import json

import pytest

from repro.obs.explain import UNBOUND, plan_metrics
from repro.obs.querylog import (
    DEFAULT_BAND,
    QueryLog,
    QueryRecord,
    aggregate_by_fingerprint,
    load_records,
    main as querylog_main,
    plan_fingerprint,
    plan_signature,
)


class FakeEstimate:
    def __init__(self, rows_int, total_cost=1.0):
        self.rows_int = rows_int
        self.startup_cost = 0.0
        self.total_cost = total_cost

    def render(self):
        return f"rows={self.rows_int}"


class FakeNode:
    """Minimal stand-in for a physical plan node."""

    def __init__(self, desc, children=(), strategy=None, source=None,
                 estimate=None):
        self._desc = desc
        self._children = list(children)
        if strategy is not None:
            self.strategy = strategy
            self.strategy_source = source
        self._estimate = estimate

    def describe(self):
        return self._desc

    def children(self):
        return self._children


def record_of(plan):
    """The plan record the Database hands the log for ``plan``."""
    return plan_metrics(plan, UNBOUND)


def sgb_plan(strategy="grid", source="auto", est_rows=100):
    scan = FakeNode("SeqScan(pts)")
    sgb = FakeNode(
        f"SGBAny(eps=1.0) strategy={strategy}/{source}",
        children=[scan], strategy=strategy, source=source,
    )
    return record_of(FakeNode("Project(count)", children=[sgb],
                              estimate=FakeEstimate(est_rows)))


class TestFingerprint:
    def test_signature_depth_prefixed(self):
        plan = sgb_plan()
        assert plan_signature(plan) == [
            "0:Project(count)", "1:SGBAny(eps=1.0)", "2:SeqScan(pts)",
        ]

    def test_stable_across_strategy_choice(self):
        # The chooser's pick is volatile; the fingerprint hashes the plan
        # shape only, so strategy flips don't split the aggregation.
        fp_grid = plan_fingerprint(sgb_plan("grid", "auto"))
        fp_index = plan_fingerprint(sgb_plan("index", "flag"))
        assert fp_grid == fp_index
        assert len(fp_grid) == 16

    def test_different_shapes_differ(self):
        other = record_of(FakeNode("Project(count)",
                                   children=[FakeNode("SeqScan(other)")]))
        assert plan_fingerprint(sgb_plan()) != plan_fingerprint(other)

    def test_fingerprints_are_the_ones_older_logs_carry(self):
        # Literals computed before the log read the plan record (when it
        # walked the plan itself): JSONL written then still aggregates
        # with JSONL written now.
        other = record_of(FakeNode("Project(count)",
                                   children=[FakeNode("SeqScan(other)")]))
        assert plan_fingerprint(sgb_plan()) == "2a255f5e250c0842"
        assert plan_fingerprint(other) == "5cdce9dc94fd213b"

    def test_decision_is_the_first_sgb_node_breadth_first(self):
        deep = FakeNode("SGBAll(eps=2.0) strategy=index/auto",
                        strategy="index", source="auto")
        shallow = FakeNode("SGBAny(eps=1.0) strategy=grid/flag",
                           strategy="grid", source="flag")
        plan = FakeNode("Join", children=[
            FakeNode("Filter", children=[deep]), shallow])
        rec = QueryLog().record_query("q", record_of(plan), 1, 0.001)
        # The shallower node, though it is the later child, decides.
        assert (rec.strategy, rec.strategy_source) == ("grid", "flag")

    def test_strategy_suffix_with_following_text_not_stripped(self):
        # Only a trailing suffix is volatile; an interior mention stays.
        node = record_of(FakeNode("Filter(strategy= x > 1)"))
        assert plan_signature(node) == ["0:Filter(strategy= x > 1)"]


class TestDrift:
    def test_ratio_and_band_classification(self):
        log = QueryLog()
        rec = log.record_query("q", sgb_plan(est_rows=100), 100, 0.01)
        assert rec.ratio == pytest.approx(1.0) and not rec.drift
        rec = log.record_query("q", sgb_plan(est_rows=100), 301, 0.01)
        assert rec.drift  # 3.01 > high edge 3.0
        rec = log.record_query("q", sgb_plan(est_rows=100), 300, 0.01)
        assert not rec.drift  # band edges inclusive
        rec = log.record_query("q", sgb_plan(est_rows=100), 30, 0.01)
        assert rec.ratio == pytest.approx(0.3) and rec.drift
        assert log.recorded == 4 and log.drifted == 2

    def test_zero_estimates_clamped(self):
        log = QueryLog()
        rec = log.record_query("q", sgb_plan(est_rows=0), 0, 0.001)
        assert rec.ratio == pytest.approx(1.0) and not rec.drift

    def test_no_estimate_means_no_ratio(self):
        plan = record_of(FakeNode("SeqScan(pts)"))
        rec = QueryLog().record_query("q", plan, 50, 0.001)
        assert rec.est_rows is None and rec.ratio is None
        assert not rec.drift
        assert rec.strategy == ""

    def test_custom_band(self):
        log = QueryLog(band=(0.5, 2.0))
        assert log.record_query("q", sgb_plan(est_rows=100), 250, 0.01).drift
        assert not QueryLog().record_query(
            "q", sgb_plan(est_rows=100), 250, 0.01).drift

    def test_band_validation(self):
        with pytest.raises(ValueError):
            QueryLog(band=(3.0, 1.0))
        with pytest.raises(ValueError):
            QueryLog(band=(0.0, 3.0))
        with pytest.raises(ValueError):
            QueryLog(capacity=0)


class TestStorage:
    def test_ring_capacity_and_views(self):
        log = QueryLog(capacity=3)
        for i in range(5):
            log.record_query(f"q{i}", sgb_plan(est_rows=100), 100,
                             latency_s=0.001 * (i + 1))
        assert len(log) == 3
        assert log.recorded == 5
        assert [r.sql for r in log.recent(2)] == ["q4", "q3"]
        assert [r.sql for r in log.slowest(2)] == ["q4", "q3"]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        log = QueryLog(path=str(path))
        log.record_query("SELECT   1", sgb_plan(est_rows=10), 40, 0.002,
                         counters={"rows_spooled": 40})
        log.record_query("SELECT 2", sgb_plan(est_rows=10), 10, 0.001)
        log.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["sql"] == "SELECT 1"  # whitespace normalized
        assert first["drift"] is True
        assert first["counters"] == {"rows_spooled": 40}
        back = load_records(str(path))
        assert [r.actual_rows for r in back] == [40, 10]
        assert back[0].strategy == "grid"
        assert back[0].ratio == pytest.approx(4.0)

    def test_close_then_append_reopens(self, tmp_path):
        path = tmp_path / "q.jsonl"
        log = QueryLog(path=str(path))
        log.record_query("a", sgb_plan(), 1, 0.001)
        log.close()
        log.record_query("b", sgb_plan(), 1, 0.001)
        log.close()
        assert len(path.read_text().splitlines()) == 2

    def test_load_skips_bad_lines(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"sql": "ok", "actual_rows": 1}\n'
                        "not json\n\n[1,2]\n")
        records = load_records(str(path))
        assert len(records) == 1 and records[0].sql == "ok"

    def test_status_shape(self, tmp_path):
        path = tmp_path / "q.jsonl"
        log = QueryLog(path=str(path))
        log.record_query("q", sgb_plan(est_rows=10), 400, 0.01)
        status = log.status(slow=1)
        assert status["recorded"] == 1
        assert status["drifted"] == 1
        assert status["retained"] == 1
        assert status["band"] == list(DEFAULT_BAND)
        assert status["path"] == str(path)
        assert status["slow_queries"][0]["sql"] == "q"
        json.dumps(status)  # must be JSON-ready
        log.close()


def skewed_log_records():
    """A skewed workload: one plan badly misestimated, one fine."""
    log = QueryLog()
    for _ in range(4):
        log.record_query("SELECT * FROM skewed ...",
                         sgb_plan("grid", "auto", est_rows=10), 100, 0.004)
    log.record_query("SELECT * FROM skewed ...",
                     sgb_plan("index", "auto", est_rows=10), 90, 0.004)
    for _ in range(3):
        log.record_query("SELECT * FROM uniform ...",
                         record_of(FakeNode("Project(x)",
                                            children=[FakeNode("SeqScan(u)")],
                                            estimate=FakeEstimate(50))),
                         55, 0.002)
    return list(log.recent(100))[::-1]


class TestAggregation:
    def test_aggregate_groups_and_orders_by_drift(self):
        groups = aggregate_by_fingerprint(skewed_log_records())
        assert len(groups) == 2
        worst = groups[0]
        assert worst["count"] == 5 and worst["drifted"] == 5
        assert worst["median_ratio"] == pytest.approx(10.0)
        assert worst["worst_ratio"] == pytest.approx(10.0)
        # Strategy flips collapse into the same fingerprint group.
        assert worst["strategies"] == ["grid/auto", "index/auto"]
        assert groups[1]["drifted"] == 0
        assert groups[1]["median_ratio"] == pytest.approx(1.1)

    def test_worst_ratio_symmetric_underestimate(self):
        records = [
            QueryRecord(ts=0, sql="q", fingerprint="f", root="r",
                        strategy="", strategy_source="", est_rows=100,
                        est_cost=None, actual_rows=n, latency_ms=1.0,
                        ratio=n / 100, drift=False, counters={})
            for n in (20, 150)
        ]
        (group,) = aggregate_by_fingerprint(records)
        # 0.2 is farther from 1.0 (5x) than 1.5 — underestimates count.
        assert group["worst_ratio"] == pytest.approx(0.2)


class TestCLI:
    def write_log(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for r in skewed_log_records():
                fh.write(json.dumps(r.as_dict()) + "\n")
        return path

    def test_text_output_surfaces_drifting_fingerprint(self, tmp_path,
                                                       capsys):
        path = self.write_log(tmp_path)
        assert querylog_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "8 record(s), 2 plan fingerprint(s), 5 drifted" in out
        drift_fp = plan_fingerprint(sgb_plan())
        # The misestimated plan leads the table.
        first_data_line = out.splitlines()[2]
        assert first_data_line.startswith(drift_fp)

    def test_drift_only_and_top(self, tmp_path, capsys):
        path = self.write_log(tmp_path)
        assert querylog_main([str(path), "--drift-only", "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "5 record(s), 1 plan fingerprint(s), 5 drifted" in out

    def test_json_output(self, tmp_path, capsys):
        path = self.write_log(tmp_path)
        assert querylog_main([str(path), "--json"]) == 0
        groups = json.loads(capsys.readouterr().out)
        assert groups[0]["drifted"] == 5

    def test_missing_file_is_error(self, tmp_path, capsys):
        assert querylog_main([str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err


class TestFingerprintStability:
    """A statement's EXPLAIN text and plan fingerprint are the same in
    every process: no predicate prints a memory address."""

    PREDICATES = [
        "b BETWEEN 0 AND 5",
        "s LIKE 'x%'",
        "s IS NOT NULL",
        "a IN (1, 2)",
        "a IN (SELECT k FROM u WHERE k > 0)",
        "CASE WHEN a > 1 THEN TRUE ELSE FALSE END",
    ]

    @staticmethod
    def explain_and_fingerprint(sql):
        from repro.engine.database import Database

        db = Database(query_log=True)
        db.execute("CREATE TABLE t (a int, b float, s text)")
        db.execute("CREATE TABLE u (k int)")
        db.insert("t", [(1, 2.0, "x"), (2, 7.0, None)])
        db.insert("u", [(1,)])
        db.query(sql)
        (record,) = db.query_log.recent(1)
        return db.explain(sql), record.fingerprint

    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_where_predicate(self, predicate):
        sql = f"SELECT a FROM t WHERE {predicate}"
        first = self.explain_and_fingerprint(sql)
        second = self.explain_and_fingerprint(sql)
        assert "object at 0x" not in first[0]
        assert first == second

    def test_having_reads_the_aggregate_row(self):
        sql = "SELECT a, count(*) FROM t GROUP BY a HAVING count(*) > 0"
        first = self.explain_and_fingerprint(sql)
        assert "object at 0x" not in first[0]
        assert first == self.explain_and_fingerprint(sql)


class TestLeftJoinFingerprints:
    """LEFT JOINs that differ in their ON condition or key count print
    different plan lines, so the query log keeps them apart."""

    PAIRS = [
        ("SELECT t.a FROM t LEFT JOIN u ON t.a < u.k",
         "SELECT t.a FROM t LEFT JOIN u ON t.a > u.k"),
        ("SELECT t.a FROM t LEFT JOIN u ON t.a = u.k",
         "SELECT t.a FROM t LEFT JOIN u ON t.a = u.k AND t.b = u.k"),
    ]

    @pytest.mark.parametrize("first,second", PAIRS)
    def test_distinct_plans_distinct_fingerprints(self, first, second):
        plan_a, fp_a = TestFingerprintStability.explain_and_fingerprint(first)
        plan_b, fp_b = TestFingerprintStability.explain_and_fingerprint(
            second)
        assert plan_a.splitlines()[1] != plan_b.splitlines()[1]
        assert fp_a != fp_b
