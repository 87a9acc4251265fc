"""``ab_e2e.py`` end to end; run explicitly, like ``benchmarks/e2e/tests``
(``PYTHONPATH=src python3 -m pytest benchmarks/tests``, about a minute).

Each test points ``TMPDIR`` at its own empty directory, so "the parent
checkout is gone" is "that directory is empty again", and a process left
behind would still carry the directory in its command line.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmarks" / "ab_e2e.py"),
       "--pairs", "1", "--workload", "ingest_stream", "--parent"]


def start(parent, tmp_path):
    return subprocess.Popen(RUN + [parent], cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, TMPDIR=str(tmp_path)))


def processes_under(tmp_path):
    found = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if str(tmp_path) in cmdline.read_text():
                found.append(cmdline.parent.name)
        except OSError:  # the process went away while we looked
            pass
    return found


def assert_nothing_left(tmp_path):
    assert list(tmp_path.iterdir()) == []
    # The script waits for the run it interrupted, not for that run's
    # own children: they got the same SIGTERM and exit on their own.
    deadline = time.monotonic() + 10
    while processes_under(tmp_path) and time.monotonic() < deadline:
        time.sleep(0.2)
    assert processes_under(tmp_path) == []


def test_self_comparison_runs_and_claims_nothing(tmp_path):
    out, err = start("HEAD", tmp_path).communicate(timeout=300)
    result = json.loads(out)
    assert result["parent"]["commit"] == result["change"]["commit"]
    w = result["workloads"]["ingest_stream"]
    assert w["parent"]["failed"] == w["change"]["failed"] == 0, err
    assert len(w["metrics"]) == 6
    assert {m["verdict"] for m in w["metrics"].values()} == {"unresolved"}
    assert_nothing_left(tmp_path)


def test_ctrl_c_mid_run_removes_the_checkout_and_its_processes(tmp_path):
    proc = start("HEAD", tmp_path)
    deadline = time.monotonic() + 60
    while not processes_under(tmp_path):  # the parent side's server is up
        assert time.monotonic() < deadline and proc.poll() is None
        time.sleep(0.2)
    proc.send_signal(signal.SIGINT)
    proc.communicate(timeout=60)
    assert proc.returncode != 0
    assert_nothing_left(tmp_path)


def test_a_failing_side_removes_the_checkout(tmp_path):
    added = subprocess.run(
        ["git", "log", "--diff-filter=A", "--format=%H", "--",
         "benchmarks/e2e/bench_e2e.py"],
        cwd=ROOT, capture_output=True, text=True).stdout.split()
    before = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", added[-1] + "~1"],
        cwd=ROOT, capture_output=True, text=True) if added else None
    if before is None or before.returncode != 0:
        pytest.skip("needs history from before the benchmark existed")
    proc = start(before.stdout.strip(), tmp_path)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode != 0 and "bench_e2e.py" in err
    assert_nothing_left(tmp_path)
