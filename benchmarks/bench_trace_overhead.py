#!/usr/bin/env python
"""Cost of the observability layer: tracing off must be (nearly) free.

Three measurements over the same SGB-Any workload:

* **baseline** — the operator's batch work with nothing around it: the
  same input check, the kernel ε-join folded into components and the
  result object, with every ``if bag is not None`` / ``maybe_span``
  guard *removed*.  This is what the ≤5% acceptance bound compares
  against.
* **off** — the public path with tracing and metrics disabled (the
  default): identical work plus the guard branches.  The asserted claim
  is ``off/baseline <= threshold`` (default 1.05).
* **on** — the same workload with a MetricBag *and* a Tracer attached
  (per-probe histogram timers, ingest/finalize spans).  Reported, not
  asserted: this is the price of turning observability on.

A fourth row times the end-to-end SQL path (``Database`` SELECT) with
``trace=False`` vs ``trace=True`` for the query-span + plan-node layer,
and the sampling-profiler states: **profile_off** (profiler was enabled
once, then stopped — the worst "off" case, asserted ≤ threshold vs the
plain path because a stopped profiler must be free) and **profile_on**
(sampler thread running; reported, not asserted).

Timings use the min over rounds (the standard microbenchmark estimator —
robust to scheduler noise on small CI boxes).

Usage::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py [--quick]
        [--n N] [--rounds R] [--threshold 1.05] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import chain
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.experiments import uniform_points  # noqa: E402
from repro.bench.harness import bench_stamp  # noqa: E402
from repro import kernels  # noqa: E402
from repro.core.distance import L2  # noqa: E402
from repro.core.result import GroupingResult  # noqa: E402
from repro.core.sgb_any import SGBAnyOperator  # noqa: E402
from repro.obs.metrics import MetricBag  # noqa: E402
from repro.obs.trace import Tracer  # noqa: E402

EPS = 1.0  # uniform_points spans a 20x20 square; ~Fig. 9 mid-density.
STRATEGY = "grid"


def run_baseline(points) -> int:
    """``SGBAnyOperator.add_many`` + ``finalize`` for the grid strategy
    with the observability hooks taken out (no spans, no bag guards, no
    counter tally); everything else — the float-tuple check, the join,
    the component fold, the result — is the operator's own work."""
    pts = points if isinstance(points, list) else list(points)
    if not (set(map(type, pts)) <= {tuple}
            and set(map(type, chain.from_iterable(pts))) <= {float}):
        pts = [tuple(float(v) for v in p) for p in pts]
    if len(set(map(len, pts))) > 1:
        raise ValueError("mixed point dimensions")
    components = kernels.make_components(len(pts))
    for us, vs, _ in kernels.eps_self_join(pts, EPS, L2, False):
        components.add_edges(us, vs)
    return GroupingResult(components.labels(), pts).n_groups


def run_off(points) -> int:
    """The public path, observability disabled (the default)."""
    op = SGBAnyOperator(eps=EPS, strategy=STRATEGY)
    op.add_many(points)
    return op.finalize().n_groups


def run_on(points) -> int:
    """The public path with a metric bag and tracer attached."""
    op = SGBAnyOperator(eps=EPS, strategy=STRATEGY,
                        metrics=MetricBag(), tracer=Tracer())
    op.add_many(points)
    return op.finalize().n_groups


def time_interleaved(fns, points, rounds: int):
    """Min wall time per function, rounds interleaved round-robin.

    Interleaving matters on small shared CI boxes: system drift (CPU
    frequency, a neighbour waking up) then lands on *every* variant of a
    round instead of biasing whichever variant ran last, which is what
    the overhead *ratios* are sensitive to.
    """
    best = {name: float("inf") for name, _ in fns}
    for _ in range(rounds):
        for name, fn in fns:
            t0 = time.perf_counter()
            fn(points)
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def sql_pair(n: int, rounds: int):
    """End-to-end SELECT wall time: tracing off/on, profiler off/on.

    ``profile_off`` uses a database whose profiler was started once and
    then stopped — the state a user lands in after ``\\profile off`` —
    so the measurement covers any residue a stopped profiler could
    leave, not just the never-enabled path.
    """
    from repro.engine.database import Database

    points = uniform_points(n)
    variants = {
        "off": {},
        "on": {"trace": True},
        "profile_off": {"profile": True},
        "profile_on": {"profile": True},
    }
    sql = ("SELECT count(*) FROM pts GROUP BY x, y "
           f"DISTANCE-TO-ANY L2 WITHIN {EPS}")
    dbs = {}
    for name, kwargs in variants.items():
        db = Database(**kwargs)
        if name == "profile_off":
            db.set_profile(False)
        db.execute("CREATE TABLE pts (x float, y float)")
        db.insert("pts", [tuple(p) for p in points])
        db.query(sql)  # warmup
        dbs[name] = db
    times = {name: float("inf") for name in variants}
    for _ in range(rounds):
        for name, db in dbs.items():
            t0 = time.perf_counter()
            db.query(sql)
            times[name] = min(times[name], time.perf_counter() - t0)
    for name in ("profile_on", "profile_off"):
        dbs[name].set_profile(False)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small size / fewer rounds for CI smoke runs")
    parser.add_argument("--n", type=int, default=None,
                        help="points per round (default 6000; 1500 --quick)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="rounds per variant, min is kept "
                             "(default 5; 3 with --quick)")
    parser.add_argument("--threshold", type=float, default=1.05,
                        help="max allowed off/baseline wall-time ratio")
    parser.add_argument("--out", type=str, default=None,
                        help="output JSON path (default: "
                             "BENCH_trace_overhead.json at the repo root)")
    args = parser.parse_args(argv)

    n = args.n or (1500 if args.quick else 6000)
    rounds = args.rounds or (3 if args.quick else 5)
    out_path = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "BENCH_trace_overhead.json"
    )

    points = uniform_points(n)
    # Interleave a warmup of each variant so first-touch costs (imports,
    # allocator growth) are not charged to whichever runs first.
    for fn in (run_baseline, run_off, run_on):
        groups = fn(points)
    results = time_interleaved(
        [("baseline", run_baseline), ("off", run_off), ("on", run_on)],
        points, rounds,
    )
    for name in ("baseline", "off", "on"):
        print(f"[operator {name:8s}] n={n}: {results[name] * 1000:8.2f} ms")

    off_ratio = results["off"] / results["baseline"]
    on_ratio = results["on"] / results["baseline"]
    print(f"off/baseline = {off_ratio:.4f}  (threshold {args.threshold})")
    print(f"on/baseline  = {on_ratio:.4f}  (reported, not asserted)")

    sql_times = sql_pair(n // 2, rounds)
    sql_ratio = sql_times["on"] / sql_times["off"]
    print(f"[sql off] {sql_times['off'] * 1000:8.2f} ms   "
          f"[sql on] {sql_times['on'] * 1000:8.2f} ms   "
          f"ratio {sql_ratio:.3f}")
    profile_off_ratio = sql_times["profile_off"] / sql_times["off"]
    profile_on_ratio = sql_times["profile_on"] / sql_times["off"]
    print(f"[sql profile_off] {sql_times['profile_off'] * 1000:8.2f} ms   "
          f"ratio {profile_off_ratio:.3f}  (threshold {args.threshold})")
    print(f"[sql profile_on ] {sql_times['profile_on'] * 1000:8.2f} ms   "
          f"ratio {profile_on_ratio:.3f}  (reported, not asserted)")

    payload = {
        "benchmark": "trace-overhead",
        "stamp": bench_stamp(),
        "config": {
            "n": n,
            "rounds": rounds,
            "eps": EPS,
            "strategy": STRATEGY,
            "threshold": args.threshold,
            "quick": args.quick,
        },
        "operator": {
            "baseline_s": results["baseline"],
            "off_s": results["off"],
            "on_s": results["on"],
            "off_vs_baseline": off_ratio,
            "on_vs_baseline": on_ratio,
            "n_groups": groups,
        },
        "sql": {
            "off_s": sql_times["off"],
            "on_s": sql_times["on"],
            "on_vs_off": sql_ratio,
            "profile_off_s": sql_times["profile_off"],
            "profile_on_s": sql_times["profile_on"],
            "profile_off_vs_off": profile_off_ratio,
            "profile_on_vs_off": profile_on_ratio,
        },
        "pass": (off_ratio <= args.threshold
                 and profile_off_ratio <= args.threshold),
    }
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")

    failed = False
    if off_ratio > args.threshold:
        print(f"FAIL: tracing-off overhead {off_ratio:.4f} exceeds "
              f"{args.threshold}", file=sys.stderr)
        failed = True
    if profile_off_ratio > args.threshold:
        print(f"FAIL: profiler-off overhead {profile_off_ratio:.4f} "
              f"exceeds {args.threshold}", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
