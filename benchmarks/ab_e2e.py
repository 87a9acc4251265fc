#!/usr/bin/env python3
"""ab_e2e: the acceptance procedure for a performance claim, written once.

    python3 benchmarks/ab_e2e.py [--parent REF] [--pairs N]
        [--workload W] [--record] > ab.json

Exports ``--parent`` (default ``HEAD~1``) with ``git archive`` into a
temp dir and runs *each tree's own* frozen benchmark — the ``command`` of
``BENCHMARK.json`` with ``--workload W --seed S --seconds <run_seconds>
--trace 0`` — as N pairs per workload: both sides of a pair get the same
seed, and which side goes first alternates.  Workloads, run length,
metric directions and bounds are read from ``BENCHMARK.json``; the seeds
follow from the parent commit, so every PR measures on seeds nobody
tuned against and a re-run repeats them.

stdout is one JSON: per (workload, end-to-end metric) both sides'
per-pair values, median, quartiles, pairs won/lost and a verdict (see
:func:`verdict`); stderr carries progress and one summary line per
metric.  ``--record`` also writes the change side's medians and
quartiles, the calibrator's spin, commit, backend and ``cpu_count`` to
``BENCH_e2e.json`` at the repo root; it refuses a tree with uncommitted
changes before any pair runs.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
RECORD_PATH = ROOT / "BENCH_e2e.json"
#: choosing-metrics §8 / simplicity-review "Benchmark workloads": at
#: least ten pairs, the change wins nine tenths of them.  With fewer
#: pairs no timing verdict is given at all.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float, parent_failed: float = 0.0,
            change_failed: float = 0.0) -> Dict[str, Any]:
    """Paired runs of one metric on one workload → better/worse/unresolved.

    *worse*: a larger share of operations failed on the change side, or
    the change's median is worse than the parent's by more than ``bound``
    (a share of the parent's median).  *better*: the change wins at
    least nine tenths of all pairs, ties counting for neither side, and
    the medians differ by more than the parent's own interquartile range.
    Anything else — including every timing comparison of fewer than ten
    pairs — is *unresolved*: the spread is wider than the difference.
    """
    sign = -1.0 if better == "higher" else 1.0  # compare as lower-is-better
    won = sum(sign * c < sign * p for p, c in zip(parent, change))
    lost = sum(sign * c > sign * p for p, c in zip(parent, change))
    q1, p_med, q3 = quartiles([sign * v for v in parent])
    gain = p_med - quartiles([sign * v for v in change])[1]
    if change_failed > parent_failed:
        result = "worse"
    elif len(parent) < MIN_PAIRS:
        result = "unresolved"
    elif -gain > bound * abs(p_med):
        result = "worse"
    elif won >= WIN_SHARE * len(parent) and gain > q3 - q1:
        result = "better"
    else:
        result = "unresolved"
    return {"pairs_won": won, "pairs_lost": lost, "verdict": result}


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export_tree(commit: str, dest: str) -> None:
    # Not a git worktree: nothing is registered in .git, so a killed run
    # leaves at most a temp dir behind.
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                         check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=tar, check=True)


def run_once(command: List[str], tree: Path, workload: str, seed: int,
             seconds: float) -> Dict[str, Any]:
    """One driver-form run in ``tree``; the server and calibrator it
    spawns share its process group, which dies with an interrupted run."""
    proc = subprocess.Popen(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGTERM)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited "
                           f"{proc.returncode}:\n{err[-2000:]}")
    line = json.loads(out.strip().splitlines()[-1])
    line["speeds"] = json.loads(err.strip().splitlines()[-1])["speeds"]
    return line


def compare(spec: Dict[str, Any], runs: Dict[str, List[Dict[str, Any]]],
            ) -> Dict[str, Any]:
    """One workload's paired runs → counts per side, verdict per metric."""
    out: Dict[str, Any] = {"metrics": {}}
    for side, side_runs in runs.items():
        out[side] = {key: sum(r[key] for r in side_runs)
                     for key in ("failed", "attempted")}
    share = {side: out[side]["failed"] / max(out[side]["attempted"], 1)
             for side in runs}
    for m in spec["end_to_end"]:
        row = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        for side, side_runs in runs.items():
            values = [r["metrics"][m["name"]]["value"] for r in side_runs]
            q1, med, q3 = quartiles(values)
            row[side] = {"values": values, "median": med, "q1": q1, "q3": q3}
        row.update(verdict(row["parent"]["values"], row["change"]["values"],
                           m["better"], m["bound"], share["parent"],
                           share["change"]))
        out["metrics"][m["name"]] = row
    return out


def record(result: Dict[str, Any], speeds: List[float]) -> Dict[str, Any]:
    """The change side of ``result`` as the committed values file."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]
    from calibrate import REFERENCE_SPIN_S
    from repro.bench.harness import bench_stamp

    q1, med, q3 = quartiles([s * REFERENCE_SPIN_S * 1e3 for s in speeds])
    return {
        **bench_stamp(),  # commit, backend, cpu_count
        "dirty": result["change"]["dirty"],
        "pairs": result["pairs"],
        "run_seconds": result["run_seconds"],
        "seeds": result["seeds"],
        "calibration": {"reference_spin_ms": REFERENCE_SPIN_S * 1e3,
                        "spin_ms": {"median": med, "q1": q1, "q3": q3}},
        "workloads": {
            name: {**w["change"], "metrics": {
                metric: {"unit": row["unit"], **{
                    k: row["change"][k] for k in ("median", "q1", "q3")}}
                for metric, row in w["metrics"].items()}}
            for name, w in result["workloads"].items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD~1", metavar="REF")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS, metavar="N")
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    dirty = bool(git("status", "--porcelain", "--", ".",
                     f":!{RECORD_PATH.name}"))
    if args.record and dirty:
        parser.error("--record needs a clean tree: the record is stamped "
                     "with HEAD, so commit or stash first")
    if args.workload:
        names = [args.workload]
    parent = git("rev-parse", "--verify", args.parent + "^{commit}")
    seed0 = 1000 + int(parent[:8], 16) % 9000
    seconds = spec["run_seconds"]
    result: Dict[str, Any] = {
        "parent": {"ref": args.parent, "commit": parent},
        "change": {"commit": git("rev-parse", "HEAD"), "dirty": dirty},
        "pairs": args.pairs, "run_seconds": seconds,
        "seeds": list(range(seed0, seed0 + args.pairs)), "workloads": {},
    }
    speeds: List[float] = []
    with tempfile.TemporaryDirectory(prefix="ab_e2e_") as tmp:
        export_tree(parent, tmp)
        trees = {"parent": Path(tmp), "change": ROOT}
        for name in names:
            runs: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
            for i, seed in enumerate(result["seeds"]):
                order = ("change", "parent") if i % 2 else ("parent", "change")
                for side in order:
                    print(f"{name} pair {i + 1}/{args.pairs} seed {seed} "
                          f"{side}", file=sys.stderr, flush=True)
                    runs[side].append(run_once(spec["command"], trees[side],
                                               name, seed, seconds))
            speeds += [s for r in runs["change"] for s in r["speeds"]]
            result["workloads"][name] = w = compare(spec, runs)
            for metric, row in w["metrics"].items():
                p, c = row["parent"], row["change"]
                print(f"  {name} {metric}: {p['median']:.4g} "
                      f"[{p['q1']:.4g}–{p['q3']:.4g}] → {c['median']:.4g} "
                      f"[{c['q1']:.4g}–{c['q3']:.4g}] {row['unit']}, change "
                      f"better in {row['pairs_won']}/{args.pairs}, "
                      f"{row['verdict']}", file=sys.stderr)
            for side in runs:
                print(f"  {name} {side} failed {w[side]['failed']}"
                      f"/{w[side]['attempted']}", file=sys.stderr)
    json.dump(result, sys.stdout, indent=1)
    print()
    if args.record:
        RECORD_PATH.write_text(
            json.dumps(record(result, speeds), indent=1) + "\n")
        print(f"wrote {RECORD_PATH.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
