"""EXPLAIN ANALYZE: SQL path, counter values, and off-by-default checks."""

import json

import pytest

from repro import Database
from repro.errors import ParseError


@pytest.fixture
def db():
    d = Database(tiebreak="first")
    d.execute("CREATE TABLE pts (id int, x float, y float, region text)")
    d.execute(
        "INSERT INTO pts VALUES "
        "(1, 1.0, 1.0, 'a'), (2, 1.5, 1.2, 'a'), (3, 9.0, 9.0, 'b'), "
        "(4, NULL, 2.0, 'b'), (5, 2.0, NULL, 'a')"
    )
    return d


ANY_SQL = (
    "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1"
)
ALL_SQL = (
    "SELECT count(*) FROM pts GROUP BY x, y "
    "DISTANCE-TO-ALL L2 WITHIN 1 ON-OVERLAP JOIN-ANY"
)


class TestExplainAnalyzeSQL:
    def test_returns_query_plan_column(self, db):
        result = db.execute("EXPLAIN ANALYZE " + ANY_SQL)
        assert result.columns == ["QUERY PLAN"]
        text = "\n".join(row[0] for row in result.rows)
        assert "SimilarityGroupBy" in text
        assert "actual rows=" in text
        assert "ms" in text

    def test_reports_null_skips_and_sgb_counters(self, db):
        # Fixed workload: rows 4 and 5 have a NULL grouping attribute, the
        # remaining 3 points form components {1,2} and {3}.
        text = "\n".join(
            row[0] for row in db.execute("EXPLAIN ANALYZE " + ANY_SQL).rows
        )
        assert "rows_skipped_null=2" in text
        assert "points=3" in text
        assert "groups_created=3" in text
        assert "groups_merged=1" in text
        assert "index_probes=3" in text

    def test_plain_explain_has_no_actuals(self, db):
        result = db.execute("EXPLAIN " + ANY_SQL)
        assert result.columns == ["QUERY PLAN"]
        text = "\n".join(row[0] for row in result.rows)
        assert "SimilarityGroupBy" in text
        assert "actual rows=" not in text

    def test_explain_rejects_non_select(self, db):
        with pytest.raises(ParseError):
            db.execute("EXPLAIN INSERT INTO pts VALUES (6, 0, 0, 'c')")

    def test_shell_prints_plan_verbatim(self, db):
        from repro.engine.shell import Shell

        shell = Shell(db)
        out = shell.feed("EXPLAIN ANALYZE " + ANY_SQL + ";")
        assert out.startswith("-> ")
        assert "rows_skipped_null=2" in out
        assert "|" not in out  # not boxed as an ordinary result table


class TestAnalyzeCounters:
    def test_sgb_any_counter_values(self, db):
        analyzed = db.analyze(ANY_SQL)
        assert analyzed.rows == db.query(ANY_SQL).rows
        totals = analyzed.node_counters()
        assert totals["rows_skipped_null"] == 2
        assert totals["points"] == 3
        assert totals["groups_created"] == 3
        assert totals["groups_merged"] == 1
        assert totals["index_probes"] == 3
        assert totals["candidates"] >= 1
        assert totals["distance_computations"] >= 1

    def test_sgb_all_counter_values(self, db):
        totals = db.analyze(ALL_SQL).node_counters()
        assert totals["rows_skipped_null"] == 2
        assert totals["points"] == 3
        assert totals["groups_created"] == 2
        assert totals["index_probes"] == 3
        assert totals["distance_computations"] >= 1

    def test_metrics_json_round_trips(self, db):
        analyzed = db.analyze(ANY_SQL)
        tree = json.loads(analyzed.metrics_json())
        assert tree["node"].startswith("Project")
        assert tree["loops"] == 1
        child = tree["children"][0]
        assert child["node"].startswith("SimilarityGroupBy")
        assert child["counters"]["rows_skipped_null"] == 2
        scan = child["children"][0]
        assert scan["rows"] == 5  # NULL rows are produced by the scan

    def test_results_match_uninstrumented_execution(self, db):
        assert db.analyze(ALL_SQL).rows == db.query(ALL_SQL).rows


class TestResourceAccounting:
    def test_plain_query_does_no_memory_tracking(self, db):
        import tracemalloc

        db.query(ANY_SQL)
        assert not tracemalloc.is_tracing()
        # Neither does an analysed run, by method or by statement.
        db.analyze(ANY_SQL)
        db.execute("EXPLAIN ANALYZE " + ANY_SQL)
        assert not tracemalloc.is_tracing()
        # A caller's own tracemalloc session survives an analysed run.
        tracemalloc.start()
        try:
            db.analyze(ANY_SQL)
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    def test_rows_spooled_counted_for_partitioned_query(self, db):
        totals = db.analyze(
            "SELECT region, count(*) FROM pts GROUP BY x, y "
            "DISTANCE-TO-ANY L2 WITHIN 1 PARTITION BY region"
        ).node_counters()
        # NULL grouping attributes are skipped up front, before any row
        # is materialized into a partition spool.
        assert totals["rows_spooled"] == 3
        assert totals["rows_skipped_null"] == 2

    def test_derived_ratios_rendered(self, db):
        text = "\n".join(
            row[0] for row in db.execute("EXPLAIN ANALYZE " + ANY_SQL).rows
        )
        assert "candidates_per_probe=" in text
        assert "refines_per_candidate=" in text


class TestInstrumentationOffByDefault:
    def test_analyze_detaches_afterwards(self, db):
        db.analyze(ANY_SQL)
        # A later ordinary query is planned afresh, runs the cheap
        # unrecorded path and still produces the same rows.
        assert sorted(db.query(ANY_SQL).rows) == [(1,), (2,)]
