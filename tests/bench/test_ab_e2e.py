"""The verdict rule of ``benchmarks/ab_e2e.py`` on synthetic paired runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "ab_e2e", ROOT / "benchmarks" / "ab_e2e.py")
ab_e2e = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_e2e)

#: name -> (better, bound), read from the file the script reads.
METRICS = {m["name"]: (m["better"], m["bound"]) for m in
           json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
#: Ten parent runs: median 100.75, interquartile range 3.5.
PARENT = [98.0, 99.0, 100.0, 101.0, 102.0, 103.0, 97.0, 104.0, 100.5, 101.5]


def verdict(metric, change, parent=PARENT, **failed):
    return ab_e2e.verdict(parent, change, *METRICS[metric], **failed)


def test_nine_wins_and_a_gap_wider_than_the_parent_iqr_is_better():
    change = [p - 10.0 for p in PARENT[:9]] + [PARENT[9] + 1.0]
    assert verdict("p50_ms", change) == {
        "pairs_won": 9, "pairs_lost": 1, "verdict": "better"}


def test_eight_wins_are_not_enough():
    change = [p - 10.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]]
    assert verdict("p50_ms", change)["verdict"] == "unresolved"


def test_a_gap_inside_the_parent_iqr_is_unresolved():
    out = verdict("p50_ms", [p - 2.0 for p in PARENT])
    assert out == {"pairs_won": 10, "pairs_lost": 0, "verdict": "unresolved"}


def test_a_median_past_the_bound_is_worse():
    bound = METRICS["p50_ms"][1]
    assert verdict("p50_ms", [p * (1 + bound) + 1 for p in PARENT])[
        "verdict"] == "worse"
    assert verdict("p50_ms", [p * (1 + bound) - 1 for p in PARENT])[
        "verdict"] == "unresolved"


def test_ties_count_for_neither_side():
    change = PARENT[:2] + [p - 10.0 for p in PARENT[2:]]
    assert verdict("p50_ms", change) == {
        "pairs_won": 8, "pairs_lost": 0, "verdict": "unresolved"}


def test_a_higher_failed_share_is_worse_whatever_the_timings():
    change = [p - 50.0 for p in PARENT]
    assert verdict("p50_ms", change, parent_failed=0.0,
                   change_failed=0.001)["verdict"] == "worse"
    assert verdict("p50_ms", change, parent_failed=0.01,
                   change_failed=0.01)["verdict"] == "better"


def test_direction_comes_from_benchmark_json():
    assert METRICS["throughput_ops_s"][0] == "higher"
    faster = [p + 10.0 for p in PARENT]
    assert verdict("throughput_ops_s", faster) == {
        "pairs_won": 10, "pairs_lost": 0, "verdict": "better"}
    assert verdict("p50_ms", faster)["verdict"] == "unresolved"
    slower = [p * 0.7 for p in PARENT]
    assert verdict("throughput_ops_s", slower)["verdict"] == "worse"
    assert verdict("p50_ms", slower)["verdict"] == "better"


@pytest.mark.parametrize("pairs", [1, 9])
def test_fewer_than_ten_pairs_decide_no_timing(pairs):
    change = [p * 0.5 for p in PARENT[:pairs]]
    assert verdict("p50_ms", change, PARENT[:pairs])["verdict"] == "unresolved"
    assert verdict("p50_ms", PARENT[:pairs], change)["verdict"] == "unresolved"


def test_record_refuses_a_dirty_tree_before_any_run(monkeypatch, capsys):
    def git(*args):
        return " M src/repro/sql/ast_nodes.py" if args[0] == "status" else "0" * 40

    def no_run(*args, **kwargs):
        pytest.fail("a pair ran on a dirty tree")

    monkeypatch.setattr(ab_e2e, "git", git)
    monkeypatch.setattr(ab_e2e, "export_tree", no_run)
    monkeypatch.setattr(ab_e2e, "run_once", no_run)
    with pytest.raises(SystemExit) as exit_:
        ab_e2e.main(["--record", "--pairs", "1"])
    assert exit_.value.code == 2
    assert "--record needs a clean tree" in capsys.readouterr().err
