"""Contract tests of bench_e2e; run explicitly
(``PYTHONPATH=src python3 -m pytest benchmarks/e2e/tests``; the path is for
``benchmarks/conftest.py``, which imports ``repro``).

They drive the real thing in ``--smoke`` shape (one short round on a
fifth of the data, traced pass included), so they take about a minute.
"""

import json
import math
import re
import sys
import threading
import time
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(E2E))

import bench_e2e  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEED = 7


@pytest.fixture(scope="module")
def spec():
    return bench_e2e.load_spec()


def smoke(spec, seed):
    return bench_e2e.report(spec, seed, bench_e2e.SMOKE_SECONDS, rounds=1,
                            spawns=1, scale=bench_e2e.SMOKE_SCALE)


@pytest.fixture(scope="module")
def smoke_runs(spec):
    return smoke(spec, SEED), smoke(spec, SEED)


def test_benchmark_json_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert w["why"] == workloads.WORKLOADS[w["name"]].why()
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert max(m["bound"] for m in spec["end_to_end"]) == setup[0]["bound"]
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_every_metric_once_per_workload(spec, smoke_runs):
    run = smoke_runs[0]
    assert set(run["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, result in run["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            line = bench_e2e.driver_line(spec, result[section], section)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"], (name, section, result[section])
            assert line["failed"] == 0 and line["attempted"] >= 1
            assert list(line["metrics"]) == [m["name"] for m in spec[section]]
            for metric, m in line["metrics"].items():
                assert NAME.match(metric)
                assert math.isfinite(m["value"]), (name, metric)
                assert m["unit"]
        assert not result["per_layer"]["layers_missing"]
        assert all(v > 0 for v in result["end_to_end"]["metrics"].values())


def test_counts_repeat_exactly_for_one_seed(smoke_runs):
    first, second = smoke_runs
    for name in first["workloads"]:
        a, b = (run["workloads"][name]["per_layer"]["metrics"]
                for run in (first, second))
        counts = [k for k in a if k.startswith("core.")
                  and not k.endswith("ms")]
        counts += ["engine.rows_spooled", "streaming.index_probes",
                   "streaming.candidates"]
        assert len(counts) == 9
        for k in counts:
            assert a[k] == b[k], (name, k)
    assert first["workloads"]["checkin_any"]["per_layer"]["metrics"][
        "core.index_probes"] > 0


def test_other_seed_changes_inputs_not_metric_names(spec, smoke_runs):
    scale = bench_e2e.SMOKE_SCALE
    for name in workloads.WORKLOADS:
        a = workloads.make_workload(name, SEED, scale).points()
        b = workloads.make_workload(name, SEED + 1, scale).points()
        assert a and b and a != b, name
        assert a == workloads.make_workload(name, SEED, scale).points()
    other = bench_e2e.run_layers(spec, "tpch_table2", SEED + 1,
                                 bench_e2e.SMOKE_SECONDS, scale=scale)
    same = smoke_runs[0]["workloads"]["tpch_table2"]["per_layer"]
    assert set(other["metrics"]) == set(same["metrics"])
    assert not other["layers_missing"] and other["failed"] == 0


def test_trace_files_are_spans(smoke_runs):
    for name in workloads.WORKLOADS:
        path = bench_e2e.OUT_DIR / f"trace_{name}.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            assert s["workload"] == name and s["end"] >= s["start"]
            if s["parent"] is not None:
                parent = by_id[s["parent"]]
                assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
                assert parent["request_id"] == s["request_id"]


# -- pieces that need no server --------------------------------------------
def test_missing_layer_reports_null_and_run_goes_on(spec, capsys):
    probes = layers.ProbeResults()

    def gone():
        from repro.index import no_such_index  # noqa: F401

    probes.guard(("index.rtree.build_ms", "index.rtree.probe_us"), gone)
    probes.guard(("dsu.union_us",), lambda: {"dsu.union_us": 1.5})
    assert probes.metrics == {"index.rtree.build_ms": None,
                              "index.rtree.probe_us": None,
                              "dsu.union_us": 1.5}
    assert set(probes.missing) == {"index.rtree.build_ms",
                                   "index.rtree.probe_us"}
    assert "ImportError" in probes.missing["index.rtree.build_ms"]
    capsys.readouterr()
    run = {"metrics": dict.fromkeys(
        (m["name"] for m in spec["per_layer"]), 1.0),
        "attempted": 3, "failed": 0}
    run["metrics"].update(probes.metrics)
    line = bench_e2e.driver_line(spec, run, "per_layer")
    assert line["correct"]
    assert line["metrics"]["index.rtree.build_ms"]["value"] == -1.0


def test_digest_survives_the_wire():
    import datetime

    from repro.service import wire

    rows = [(1, 2.5, "x", [3, 4], datetime.date(1995, 1, 1), None),
            (0, float("nan"), "y", [], datetime.date(1996, 2, 2), True)]
    decoded = wire.decode_rows(wire.loads(wire.dumps(
        {"rows": wire.encode_rows(rows)}))["rows"])
    assert workloads.rows_digest(rows) == workloads.rows_digest(decoded[::-1])
    assert workloads.rows_digest(rows) != workloads.rows_digest(rows[:1])
    assert workloads.canonical_partition([5, 5, 2, 5, 9]) == [0, 0, 1, 0, 2]


def test_ingest_schedule_fixes_every_answer():
    w = workloads.IngestStream(SEED, 0.05)
    ops = w.schedule(0)
    assert ops == w.schedule(0)
    assert [op.cls for op in ops[:10]] == ["insert"] * 8 + ["snapshot", "count"]
    assert all(op.key in w.expected for op in ops)
    assert w.expected[ops[8].key] == 8 * w.ROWS_PER_INSERT
    positive = sum(1 for _, lat, _ in w.rows(0)[:8 * w.ROWS_PER_INSERT]
                   if lat > 0)
    assert w.expected[ops[9].key] == workloads.rows_digest([(positive,)])


def test_backlogged_open_loop_round_is_aborted_and_failed():
    class SlowClient:  # answers in 0.45 s what is due every 0.1 s
        def query(self, sql):
            time.sleep(0.45)
            return "late"

    op = workloads.Op("query", "SELECT 1", "cheap", "cheap")
    lane = workloads.Lane("B", 10.0, lambda _round: [op], True)
    log = loadgen.LaneLog()
    clock = {}
    barrier = threading.Barrier(
        1, action=lambda: clock.update(t0=time.perf_counter()))
    loadgen._run_lane(lane, [op], 0, SlowClient(), barrier, clock, 30.0, log)
    assert log.aborted and 1 <= len(log.records) <= 5
    shim = type("W", (), {"expected": {"cheap": "'late'"},
                          "latency_cls": frozenset({"cheap"}),
                          "throughput_cls": frozenset({"cheap"})})
    result = loadgen.RoundResult(shim, [log], clock["t0"],
                                 time.perf_counter(), 0.1)
    assert result.aborted and result.failed == result.attempted >= 1
    assert math.isnan(result.metrics["p50_ms"])


def test_quantile_matches_linear_interpolation():
    assert loadgen.quantile([1, 2, 3, 4, 5], 0.5) == 3
    assert loadgen.quantile([10, 20], 0.9) == pytest.approx(19.0)
    assert math.isnan(loadgen.quantile([], 0.5))
