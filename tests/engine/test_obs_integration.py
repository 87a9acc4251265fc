"""Database-level query-log integration.

Covers the wiring the unit tests cannot: ``Database(query_log=)``
construction, log rows that agree with the run's plan record, drift
records produced by a skewed workload and surfaced by fingerprint
through the CLI, and the shell's ``\\querylog`` meta-command.
"""

import json

from repro.engine.database import Database
from repro.engine.shell import Shell
from repro.obs.querylog import QueryLog, main as querylog_main

SGB_SQL = ("SELECT count(*) FROM pts GROUP BY x, y "
           "DISTANCE-TO-ANY L2 WITHIN 1")
PARTITIONED_SQL = (
    "SELECT part, count(*) FROM pts GROUP BY x, y "
    "DISTANCE-TO-ANY L2 WITHIN 1 PARTITION BY part"
)


def make_db(n=400, **kwargs) -> Database:
    db = Database(**kwargs)
    db.execute("CREATE TABLE pts (part int, x float, y float)")
    rows = []
    for i in range(n):
        cluster = i % 3
        rows.append((i % 4, cluster * 10.0 + (i % 7) * 0.05,
                     cluster * 10.0 + (i % 5) * 0.05))
    db.insert("pts", rows)
    return db


class TestDatabaseQueryLog:
    def test_off_by_default(self):
        db = Database()
        assert db.query_log is None
        assert not db.query_log_enabled

    def test_constructor_path_writes_jsonl(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        db = make_db(query_log=str(path))
        assert db.query_log_enabled
        db.query(SGB_SQL)
        db.query(PARTITIONED_SQL)
        db.query_log.close()
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert len(lines) == 2
        fingerprints = {d["fingerprint"] for d in lines}
        assert len(fingerprints) == 2
        for d in lines:
            assert d["actual_rows"] >= 1
            assert d["latency_ms"] > 0
            assert d["strategy"]
            assert d["est_rows"] >= 1

    def test_constructor_accepts_bool_and_instance(self):
        db = make_db(query_log=True)
        db.query(SGB_SQL)
        assert db.query_log.recorded == 1
        custom = QueryLog(band=(0.9, 1.1))
        db2 = make_db(query_log=custom)
        assert db2.query_log is custom

    def test_toggle_keeps_ring(self, tmp_path):
        db = make_db(query_log=True)
        db.query(SGB_SQL)
        db.set_query_log(False)
        assert not db.query_log_enabled
        db.query(SGB_SQL)  # not recorded
        assert db.query_log.recorded == 1
        db.set_query_log(True)
        db.query(SGB_SQL)
        assert db.query_log.recorded == 2

    def test_analyze_and_traced_paths_record_counters(self, tmp_path):
        db = make_db(trace=True, query_log=True)
        db.query(SGB_SQL)
        rec = db.query_log.recent(1)[0]
        assert rec.counters.get("points") == 400
        db.analyze(SGB_SQL)
        rec = db.query_log.recent(1)[0]
        assert rec.counters.get("points") == 400

    def test_log_row_is_a_rendering_of_the_plan_record(self):
        """Row, EXPLAIN ANALYZE and ``metrics_json()`` read one record:
        the row's root, estimates, strategy and counters are that
        record's, for a serial and a pool run alike."""
        for parallel in (1, 2):
            db = make_db(parallel=parallel, query_log=True)
            res = db.analyze(PARTITIONED_SQL)
            row = db.query_log.recent(1)[0]
            top = res.metrics
            assert row.root == top["node"]
            assert row.est_rows == top["estimated_rows"]
            assert row.est_cost == top["estimated_cost"]["total"]
            assert row.actual_rows == top["rows"] == len(res.rows)
            sgb = top["children"][0]
            assert (row.strategy, row.strategy_source) == \
                (sgb["strategy"], sgb["strategy_source"])
            assert f"strategy={row.strategy}/{row.strategy_source}" \
                in sgb["node"]
            assert row.counters == res.node_counters()

    def test_skewed_workload_drifts_and_cli_surfaces_it(self, tmp_path,
                                                        capsys):
        # The acceptance scenario: a skewed dataset the uniform-density
        # cost model misestimates; repeated queries drift, and the CLI
        # groups the misestimates under one plan fingerprint.
        path = tmp_path / "queries.jsonl"
        db = Database(query_log=str(path))
        db.execute("CREATE TABLE sk (x float, y float)")
        # One dense blob (half the table within eps of each other) plus
        # a sparse far-flung tail: actual group count collapses to ~2,
        # far below a uniform-density estimate over the bounding box.
        rows = [(0.001 * i, 0.001 * i) for i in range(300)]
        rows += [(1000.0 + 90.0 * i, 1000.0 + 90.0 * i) for i in range(20)]
        db.insert("sk", rows)
        sql = ("SELECT count(*) FROM sk GROUP BY x, y "
               "DISTANCE-TO-ANY L2 WITHIN 0.5")
        for _ in range(3):
            db.query(sql)
        records = db.query_log.recent(10)
        assert any(r.drift for r in records), \
            [r.ratio for r in records]
        drift_fp = records[0].fingerprint
        db.query_log.close()
        assert querylog_main([str(path), "--drift-only"]) == 0
        out = capsys.readouterr().out
        assert drift_fp in out
        assert "drifted" in out


class TestShellObsCommands:
    def test_querylog_cycle(self, tmp_path):
        path = tmp_path / "ql.jsonl"
        sh = Shell(make_db())
        assert "off" in sh.feed("\\querylog")
        assert "on" in sh.feed(f"\\querylog on {path}")
        sh.feed(SGB_SQL + ";")
        listing = sh.feed("\\querylog")
        assert "est=" in listing and "actual=" in listing
        assert sh.feed("\\querylog drift") == "No drift-flagged queries."
        assert "off" in sh.feed("\\querylog off")
        assert path.exists()

    def test_help_mentions_obs_commands(self):
        out = Shell().feed("\\help")
        assert "\\trace" in out and "\\querylog" in out
