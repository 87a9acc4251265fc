"""bench_e2e: five wire-level workloads and a per-layer time budget.

Driver form (what ``BENCHMARK.json`` names; one workload per process)::

    python3 benchmarks/e2e/bench_e2e.py --workload checkin_any --seed 7 \\
        --seconds 12 --trace 0

prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0`` (all tracing off), the per-layer metrics with ``--trace 1``
(a separate traced pass; see layers.py).

Without ``--workload`` every workload runs both passes and a report with
every metric, its unit and the plan-shaped budget is printed and written
to ``benchmarks/e2e/out/bench_e2e.json``.  ``--smoke`` does that in one
short round on a fifth of the data; ``--repeat N`` runs the driver form N
times per workload, each with another seed, and prints every end-to-end
metric's spread against its bound.  README.md explains the workloads and
how the layer metrics map onto the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

ROUNDS = 5
SETUP_SPAWNS = 5
SMOKE_SCALE = 0.2
SMOKE_SECONDS = 1.5


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def visible_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def stamp() -> Dict[str, Any]:
    from repro.bench.harness import bench_stamp

    out = bench_stamp()
    out["nproc"] = visible_cores()
    out["os_cpu_count"] = os.cpu_count()
    out["python"] = platform.python_version()
    try:
        import numpy

        out["numpy"] = numpy.__version__
    except ImportError:
        out["numpy"] = None
    return out


# ----------------------------------------------------------------------
def units_of(spec: Dict[str, Any], section: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[section]}


def run_end_to_end(spec: Dict[str, Any], name: str, seed: int,
                   seconds: float, *, rounds: int = ROUNDS,
                   spawns: int = SETUP_SPAWNS,
                   scale: float = 1.0) -> Dict[str, Any]:
    """The untraced pass of one workload."""
    from calibrate import Calibrator
    from loadgen import measure_setup, run_rounds, summarize
    from workloads import make_workload

    workload = make_workload(name, seed, scale)
    with Calibrator() as cal:
        workload.compute_expected()  # before any timing
        server, spawn_windows = measure_setup(name, seed, scale, spawns)
        with server:
            results, final_failures = run_rounds(server, workload, rounds,
                                                 seconds)
            peak_rss_mb = server.peak_rss_mb()
    run = summarize(results, [cal.speed(*r.window) for r in results],
                    units_of(spec, "end_to_end"))
    run["failed"] += final_failures
    run["metrics"]["setup_s"] = statistics.median(
        (t1 - t0) / cal.speed(t0, t1) for t0, t1 in spawn_windows)
    run["raw_metrics"]["setup_s"] = statistics.median(
        t1 - t0 for t0, t1 in spawn_windows)
    run["metrics"]["peak_rss_mb"] = run["raw_metrics"]["peak_rss_mb"] = \
        peak_rss_mb
    run["failed_frac"] = run["failed"] / max(run["attempted"], 1)
    if name == "lock_mix" and visible_cores() < 2:
        run["degraded"] = True  # both lanes and the server share a core
    return run


def run_layers(spec: Dict[str, Any], name: str, seed: int, seconds: float,
               *, scale: float = 1.0) -> Dict[str, Any]:
    """The traced pass of one workload (per-layer metrics)."""
    from layers import traced_pass
    from workloads import make_workload

    return traced_pass(make_workload(name, seed, scale), seconds, OUT_DIR,
                       units_of(spec, "per_layer"))


def driver_line(spec: Dict[str, Any], run: Dict[str, Any],
                section: str) -> Dict[str, Any]:
    """The contract's result object for one run."""
    metrics = {}
    for m in spec[section]:
        value = run["metrics"].get(m["name"])
        if value is None:
            # A probe whose entry point is gone (see layers_missing on
            # stderr and in the report); the line still needs a number.
            value = -1.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return {
        "correct": bool(run["failed"] == 0 and finite),
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
def report(spec: Dict[str, Any], seed: int, seconds: float, rounds: int,
           spawns: int, scale: float) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "stamp": stamp(), "seed": seed, "seconds": seconds,
        "rounds": rounds, "scale": scale, "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        e2e = run_end_to_end(spec, name, seed, seconds, rounds=rounds,
                             spawns=spawns, scale=scale)
        layers = run_layers(spec, name, seed, seconds, scale=scale)
        out["workloads"][name] = {"end_to_end": e2e, "per_layer": layers}
        print(f"\n== {name}  ({e2e['latency_samples']} latency samples, "
              f"failed_frac {e2e['failed_frac']:.4f}"
              + (", degraded" if e2e.get("degraded") else "") + ")")
        speeds = ", ".join(f"{v:.2f}" for v in e2e["speeds"])
        print(f"  machine speed per round: {speeds}  (1.0 = reference; "
              f"times below are at reference speed, raw in brackets)")
        for m in spec["end_to_end"]:
            print(f"  {m['name']:<40} {e2e['metrics'][m['name']]:>14.4f} "
                  f"{m['unit']:<5} [{e2e['raw_metrics'][m['name']]:.4f}]")
        for m in spec["per_layer"]:
            value = layers["metrics"].get(m["name"])
            shown = "null" if value is None else f"{value:>14.4f}"
            print(f"  {m['name']:<40} {shown:>14} {m['unit']}")
        if layers["layers_missing"]:
            print(f"  layers_missing: {layers['layers_missing']}")
        print("  budget (mean ms per op of the traced wire round):")
        for stage, ms in layers["budget_ms"].items():
            print(f"    {stage:<38} {ms:>10.4f}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "bench_e2e.json"
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True, default=str)
    print(f"\nwrote {path.relative_to(ROOT)}")
    return out


def _spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def repeat(spec: Dict[str, Any], n: int, seed: int, seconds: float,
           only: Optional[str] = None) -> int:
    """N driver-form runs per workload, each with another seed; per
    end-to-end metric the interquartile range as a share of the median
    (what the acceptance driver computes) against the metric's bound,
    and the same for the uncalibrated values of the same runs."""
    cmd = spec["command"]
    worst = 0.0
    out: Dict[str, Any] = {}
    for w in spec["workloads"]:
        if only not in (None, w["name"]):
            continue
        values: Dict[str, List[float]] = {}
        raw: Dict[str, List[float]] = {}
        speeds: List[List[float]] = []
        for i in range(n):
            proc = subprocess.run(
                cmd + ["--workload", w["name"], "--seed", str(seed + i),
                       "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if not line["correct"]:
                print(f"{w['name']} seed {seed + i}: NOT CORRECT "
                      f"({line['failed']}/{line['attempted']} failed)")
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            diag = json.loads(proc.stderr.strip().splitlines()[-1])
            for name, value in diag["raw_metrics"].items():
                raw.setdefault(name, []).append(value)
            speeds.append(diag["speeds"])
        out[w["name"]] = {"values": values, "raw": raw, "speeds": speeds}
        flat = [v for run in speeds for v in run]
        print(f"\n== {w['name']}  ({n} runs, seeds {seed}..{seed + n - 1}; "
              f"machine speed {min(flat):.2f}..{max(flat):.2f})")
        for m in spec["end_to_end"]:
            vs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = _spread(vs)
            worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:<18} median {med:>10.4f} {m['unit']:<4} "
                  f"q1 {q1:>10.4f} q3 {q3:>10.4f}  spread {spread:5.3f} "
                  f"/ bound {m['bound']:.2f}   (uncalibrated "
                  f"{_spread(raw[m['name']]):5.3f})")
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "repeat.json", "w") as fh:
        json.dump({"seed": seed, "seconds": seconds, "workloads": out}, fh,
                  indent=1)
    print(f"\nworst spread/bound = {worst:.2f} "
          f"(target < 0.33, accepted < 1)")
    return 0 if worst < 1 else 1


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, metavar="N")
    args = parser.parse_args(argv)
    spec = load_spec()
    try:
        import repro  # noqa: F401 - the program under test
    except ImportError as exc:
        print(f"bench_e2e: cannot import the program under test "
              f"(expected at {ROOT / 'src'}): {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    )
    if args.repeat:
        return repeat(spec, args.repeat, args.seed, seconds, args.workload)
    rounds, spawns, scale = (
        (1, 1, SMOKE_SCALE) if args.smoke else (ROUNDS, SETUP_SPAWNS, 1.0)
    )
    if args.workload is None:
        t0 = time.perf_counter()
        out = report(spec, args.seed, seconds, rounds, spawns, scale)
        print(f"total {time.perf_counter() - t0:.1f} s")
        failed = sum(w["end_to_end"]["failed"] + w["per_layer"]["failed"]
                     for w in out["workloads"].values())
        return 0 if failed == 0 else 1
    if args.trace:
        run = run_layers(spec, args.workload, args.seed, seconds,
                         scale=scale)
        if run["layers_missing"]:
            print(f"layers_missing: {run['layers_missing']}",
                  file=sys.stderr)
        line = driver_line(spec, run, "per_layer")
    else:
        run = run_end_to_end(spec, args.workload, args.seed, seconds,
                             rounds=rounds, spawns=spawns, scale=scale)
        line = driver_line(spec, run, "end_to_end")
        # For --repeat: what the calibration changed (stderr, so the
        # result stays the last line of stdout).
        print(json.dumps({"raw_metrics": run["raw_metrics"],
                          "speeds": run["speeds"]}), file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
