"""Database-level profiling and query-log integration.

Covers the wiring the unit tests cannot: ``Database(profile=,
query_log=)`` construction, profiled queries attributing samples under
query spans (including samples shipped back from ``parallel=`` worker
processes), drift records produced by a skewed workload and surfaced by
fingerprint through the CLI, and the shell's ``\\profile`` /
``\\querylog`` meta-commands.
"""

import json

import pytest

from repro.engine.database import Database
from repro.engine.shell import Shell
from repro.errors import PlanningError
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


class TestDatabaseProfiler:
    def test_off_by_default(self):
        db = Database()
        assert db.profiler is None
        assert not db.profile_enabled
        with pytest.raises(PlanningError):
            db.profile_report()
        with pytest.raises(PlanningError):
            db.export_profile("/tmp/never-written.folded")

    def test_profiled_query_attributes_samples_to_spans(self):
        db = make_db(trace=True, profile=True)
        db.set_profile(True, interval_s=0.0005)
        try:
            for _ in range(3):
                db.query(SGB_SQL)
            prof = db.profiler
            assert prof.samples > 0
            span_frames = {
                frame for stack in prof.counts for frame in stack
                if frame.startswith("span:")
            }
            assert "span:query" in span_frames
        finally:
            db.set_profile(False)

    def test_profile_without_trace_still_samples(self):
        db = make_db(profile=True)
        db.set_profile(True, interval_s=0.0005)
        try:
            for _ in range(3):
                db.query(SGB_SQL)
            assert db.profiler.samples > 0
        finally:
            db.set_profile(False)

    def test_set_profile_toggle_keeps_samples(self, tmp_path):
        db = make_db(trace=True, profile=True)
        db.set_profile(True, interval_s=0.0005)
        for _ in range(3):
            db.query(SGB_SQL)
        db.set_profile(False)
        assert not db.profile_enabled
        collected = db.profiler.samples
        assert collected > 0
        db.query(SGB_SQL)  # unprofiled: no new samples
        assert db.profiler.samples == collected
        report = db.profile_report(top=3)
        assert "samples" in report
        path = tmp_path / "profile.folded"
        n = db.export_profile(str(path))
        assert n == len(path.read_text().splitlines()) > 0
        db.clear_profile()
        assert db.profiler.samples == 0

    def test_parallel_worker_samples_fold_under_dispatch_prefix(self):
        # Satellite: worker processes run their own sampler; the shipped
        # states must fold back under the dispatch-side span path, so a
        # flamegraph of a parallel query still hangs off span:query.
        db = make_db(n=600, parallel=2, trace=True, profile=True)
        db.set_profile(True, interval_s=0.0002)
        try:
            for _ in range(3):
                db.query(PARTITIONED_SQL)
            prof = db.profiler
            worker_stacks = [
                stack for stack in prof.counts
                if any("parallel.py" in f and f.endswith(":run_partition")
                       for f in stack)
            ]
            assert worker_stacks, "no worker samples were folded back"
            for stack in worker_stacks:
                assert stack[0] == "span:query"
        finally:
            db.set_profile(False)

    def test_parallel_profiled_results_match_unprofiled(self):
        profiled = make_db(n=600, parallel=2, profile=True)
        plain = make_db(n=600, parallel=2)
        try:
            assert profiled.query(PARTITIONED_SQL).rows == \
                plain.query(PARTITIONED_SQL).rows
        finally:
            profiled.set_profile(False)


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
    def test_profile_cycle(self, tmp_path):
        sh = Shell(make_db())
        assert "off" in sh.feed("\\profile")
        assert "on" in sh.feed("\\profile on")
        sh.feed(SGB_SQL + ";")
        sh.feed(SGB_SQL + ";")
        assert "off" in sh.feed("\\profile off")
        out = sh.feed("\\profile report")
        assert "samples" in out
        path = tmp_path / "shell.folded"
        assert "Wrote" in sh.feed(f"\\profile dump {path}")
        assert path.exists()
        sh.feed("\\profile clear")
        assert "usage" in sh.feed("\\profile bogus")

    def test_profile_report_before_enable_is_error(self):
        sh = Shell()
        assert sh.feed("\\profile report").startswith("ERROR:")

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
        assert "\\profile" in out and "\\querylog" in out
