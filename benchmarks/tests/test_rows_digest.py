"""``rows_digest.py``: the working tree against itself, end to end, and
the comparison on hand-made dumps (``PYTHONPATH=src python3 -m pytest
benchmarks/tests``)."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))
_spec = importlib.util.spec_from_file_location(
    "rows_digest", ROOT / "benchmarks" / "rows_digest.py")
rows_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rows_digest)


def test_self_comparison_matches_every_statement(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "rows_digest.py"),
         "--parent", "HEAD"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, TMPDIR=str(tmp_path)))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    workloads = {line.split()[1] for line in lines[:-1]}
    assert workloads == {"checkin_any", "checkin_all", "tpch_table2",
                         "lock_mix", "ingest_stream"}
    assert all(line.startswith("same ") for line in lines[:-1])
    assert list(tmp_path.iterdir()) == []  # the parent checkout is gone


def test_any_difference_is_marked():
    plan = {"rows": "r", "explain": "-> SeqScan on t as t"}
    parent = {"w": {"a": plan, "b": plan, "c": plan}}
    change = {"w": {"a": plan, "b": {**plan, "rows": "s"},
                    "c": {**plan, "explain": "-> IndexScan"}, "d": plan}}
    assert rows_digest.compare(parent, change) == [
        "same w a: rows same, explain same",
        "DIFF w b: rows differ, explain same",
        "DIFF w c: rows same, explain differs",
        "DIFF w d: only the change runs it",
    ]
    assert rows_digest.compare(parent, {})[0] == (
        "DIFF w a: only the parent runs it")
