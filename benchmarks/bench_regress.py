#!/usr/bin/env python
"""Performance-regression harness over the committed BENCH_*.json files.

Each committed ``BENCH_<name>.json`` at the repo root is the accepted
baseline for one benchmark.  This harness re-runs the benchmark scripts
fresh (into a scratch directory), then compares selected metrics against
the committed numbers:

* **ratio checks** — a numeric metric must stay within ``--tolerance``
  (default 15%) of the committed value, in the metric's *bad* direction
  only (a speedup may grow, an overhead ratio may shrink).  Metrics tied
  to the full-size workload are skipped under ``--quick`` (the fresh run
  uses a smaller n, so the magnitudes are not comparable) and logged as
  skipped rather than silently passed.
* **flag checks** — correctness booleans in the fresh payload
  (``pass``, ``summary.all_ok``, per-result parity flags) must hold in
  every mode; a benchmark whose own acceptance gate fails is a
  regression regardless of timings.

A metric present in the fresh payload but absent from the committed
baseline (a newly added measurement) is recorded but not compared, so
adding metrics to a benchmark never breaks this harness.

Results land in ``BENCH_regress.json``; exit status 1 on any regression.

Usage::

    PYTHONPATH=src python benchmarks/bench_regress.py [--quick]
        [--only NAME[,NAME...]] [--tolerance 0.15] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.harness import bench_stamp  # noqa: E402

DEFAULT_TOLERANCE = 0.15


class Metric:
    """One numeric comparison: dotted ``path``, bad ``direction``."""

    def __init__(self, path: str, direction: str, quick_ok: bool):
        assert direction in ("higher_is_better", "lower_is_better")
        self.path = path
        self.direction = direction
        #: Comparable under --quick?  Dimensionless ratios are; absolute
        #: speedups/throughputs measured at the full workload size are not.
        self.quick_ok = quick_ok


class Flag:
    """One correctness check: ``kind`` is how the value must read."""

    def __init__(self, path: str, kind: str = "true"):
        assert kind in ("true", "zero", "all_true")
        self.path = path
        self.kind = kind


class Bench:
    def __init__(self, name: str, script: str, baseline: str,
                 metrics: List[Metric], flags: List[Flag]):
        self.name = name
        self.script = script
        self.baseline = baseline
        self.metrics = metrics
        self.flags = flags


#: The manifest: every benchmark with a committed baseline, its guarded
#: metrics, and its correctness flags.  Order is cheap-first so a broken
#: tree fails fast.
MANIFEST = [
    Bench(
        "trace_overhead", "bench_trace_overhead.py",
        "BENCH_trace_overhead.json",
        metrics=[
            Metric("operator.off_vs_baseline", "lower_is_better", True),
            Metric("sql.on_vs_off", "lower_is_better", True),
            Metric("sql.profile_off_vs_off", "lower_is_better", True),
        ],
        flags=[Flag("pass")],
    ),
    Bench(
        "streaming", "bench_streaming.py", "BENCH_streaming.json",
        metrics=[],
        flags=[Flag("results[*].snapshot_equals_batch", "all_true")],
    ),
    Bench(
        "planner", "bench_planner.py", "BENCH_planner.json",
        metrics=[],
        flags=[Flag("summary.all_ok")],
    ),
    Bench(
        "parallel", "bench_parallel.py", "BENCH_parallel.json",
        metrics=[
            Metric("summary.numpy_speedup_vs_python",
                   "higher_is_better", False),
        ],
        flags=[Flag("summary.memberships_agree"),
               Flag("summary.labels_identical")],
    ),
    Bench(
        "service", "bench_service.py", "BENCH_service.json",
        metrics=[
            Metric("summary.peak_throughput_rps", "higher_is_better", False),
        ],
        flags=[Flag("summary.load_errors", "zero"),
               Flag("summary.result_mismatches", "zero")],
    ),
]


def get_path(payload: Dict[str, Any], path: str):
    """Resolve ``a.b.c`` (or ``a[*].b`` → list of values) in a payload.

    Returns None when any component is missing — the caller decides
    whether a missing value is a skip (baseline) or a failure (fresh).
    """
    if "[*]" in path:
        head, tail = path.split("[*].", 1)
        seq = get_path(payload, head)
        if not isinstance(seq, list):
            return None
        return [get_path(item, tail) for item in seq]
    node: Any = payload
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def run_bench(bench: Bench, quick: bool, scratch: Path) -> Dict[str, Any]:
    """Run one benchmark script fresh; return its JSON payload."""
    out = scratch / f"{bench.name}.json"
    cmd = [sys.executable, str(BENCH_DIR / bench.script),
           "--out", str(out)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{bench.script} exited {proc.returncode}:\n"
            f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
        )
    return json.loads(out.read_text())


def check_flag(flag: Flag, fresh: Dict[str, Any]) -> Dict[str, Any]:
    value = get_path(fresh, flag.path)
    if flag.kind == "zero":
        ok = value == 0
    elif flag.kind == "all_true":
        ok = isinstance(value, list) and len(value) > 0 and all(value)
    else:
        ok = value is True
    return {"kind": "flag", "path": flag.path, "value": value,
            "status": "pass" if ok else "fail"}


def check_metric(metric: Metric, fresh: Dict[str, Any],
                 committed: Dict[str, Any], quick: bool,
                 tolerance: float) -> Dict[str, Any]:
    result: Dict[str, Any] = {"kind": "metric", "path": metric.path,
                              "direction": metric.direction}
    fresh_value = get_path(fresh, metric.path)
    committed_value = get_path(committed, metric.path)
    result["fresh"] = fresh_value
    result["committed"] = committed_value
    if fresh_value is None:
        result["status"] = "fail"
        result["reason"] = "metric missing from fresh payload"
        return result
    if committed_value is None:
        result["status"] = "skip"
        result["reason"] = "no committed baseline for this metric yet"
        return result
    if quick and not metric.quick_ok:
        result["status"] = "skip"
        result["reason"] = "scale-dependent metric; full run required"
        return result
    if metric.direction == "lower_is_better":
        limit = committed_value * (1.0 + tolerance)
        ok = fresh_value <= limit
    else:
        limit = committed_value * (1.0 - tolerance)
        ok = fresh_value >= limit
    result["limit"] = limit
    result["status"] = "pass" if ok else "fail"
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="run each benchmark in its --quick mode; "
                             "scale-dependent metrics are skipped")
    parser.add_argument("--only", type=str, default=None,
                        help="comma-separated benchmark names to run "
                             "(default: the full manifest)")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed fractional regression (default 0.15)")
    parser.add_argument("--out", type=str, default=None,
                        help="output JSON path (default: "
                             "BENCH_regress.json at the repo root)")
    args = parser.parse_args(argv)

    out_path = Path(args.out) if args.out else (
        REPO_ROOT / "BENCH_regress.json"
    )
    selected = MANIFEST
    if args.only:
        wanted = {w.strip() for w in args.only.split(",") if w.strip()}
        unknown = wanted - {b.name for b in MANIFEST}
        if unknown:
            parser.error(f"unknown benchmark(s): {sorted(unknown)}; "
                         f"known: {[b.name for b in MANIFEST]}")
        selected = [b for b in MANIFEST if b.name in wanted]

    benches: List[Dict[str, Any]] = []
    failed = 0
    with tempfile.TemporaryDirectory(prefix="bench_regress_") as tmp:
        scratch = Path(tmp)
        for bench in selected:
            baseline_path = REPO_ROOT / bench.baseline
            entry: Dict[str, Any] = {"name": bench.name,
                                     "script": bench.script}
            if not baseline_path.exists():
                entry["status"] = "skip"
                entry["reason"] = f"no committed {bench.baseline}"
                print(f"[{bench.name}] SKIP: {entry['reason']}")
                benches.append(entry)
                continue
            committed = json.loads(baseline_path.read_text())
            print(f"[{bench.name}] running {bench.script}"
                  f"{' --quick' if args.quick else ''} ...")
            try:
                fresh = run_bench(bench, args.quick, scratch)
            except (RuntimeError, ValueError) as exc:
                entry["status"] = "fail"
                entry["reason"] = str(exc)
                print(f"[{bench.name}] FAIL: {exc}")
                benches.append(entry)
                failed += 1
                continue
            checks = [check_flag(f, fresh) for f in bench.flags]
            checks += [
                check_metric(m, fresh, committed, args.quick,
                             args.tolerance)
                for m in bench.metrics
            ]
            entry["checks"] = checks
            bad = [c for c in checks if c["status"] == "fail"]
            entry["status"] = "fail" if bad else "pass"
            for c in checks:
                tag = c["status"].upper()
                if c["kind"] == "metric":
                    detail = (f"fresh={c.get('fresh')} "
                              f"committed={c.get('committed')}")
                    if "reason" in c:
                        detail += f" ({c['reason']})"
                else:
                    detail = f"value={c.get('value')!r}"
                print(f"[{bench.name}]   {tag:4s} {c['path']}  {detail}")
            if bad:
                failed += 1
            benches.append(entry)

    payload = {
        "benchmark": "regression-gate",
        "stamp": bench_stamp(),
        "config": {
            "quick": args.quick,
            "tolerance": args.tolerance,
            "only": args.only,
        },
        "benches": benches,
        "pass": failed == 0,
    }
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    if failed:
        print(f"FAIL: {failed} benchmark(s) regressed", file=sys.stderr)
        return 1
    print("all regression checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
