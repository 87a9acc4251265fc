#!/usr/bin/env python
"""Does the cost-based SGB strategy chooser pick the right plan?

A matrix of workloads (dense / sparse / skewed neighborhoods) crossed
with both SGB modes (DISTANCE-TO-ANY, DISTANCE-TO-ALL).  Each cell runs
the same similarity GROUP BY query:

* once per *forced* strategy — the legacy flag path
  (``sgb_any_strategy=`` / ``sgb_all_strategy=``), timing each; and
* once with the default ``"auto"`` configuration, where the SGB node
  picks a strategy at run time from the input's size and the ``ANALYZE``
  density (read back from EXPLAIN ANALYZE).

The gate, per cell: the strategy the chooser picked must be the fastest
forced strategy, or within ``--tolerance`` (default 10%) of it — with no
flags set.  Group memberships must be bit-identical across every forced
run and the auto run (strategy is a pure performance decision).  Each
cell also records ``chosen_without_density``, the pick at the same n with
the density unknown (as for a subquery or a join), and the run prints
how many cells it would change.

Usage::

    PYTHONPATH=src python benchmarks/bench_planner.py [--quick]
        [--n N] [--repeats R] [--tolerance F] [--out BENCH_planner.json]
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.experiments import skewed_points, uniform_points  # noqa: E402
from repro.bench.harness import bench_stamp  # noqa: E402
from repro.engine.database import Database  # noqa: E402
from repro.stats.chooser import (  # noqa: E402
    ALL_STRATEGIES,
    ANY_STRATEGIES,
    choose_strategy,
)

#: eps per workload is what separates the cells: dense neighborhoods
#: (many points within eps of each other), sparse ones (eps below the
#: typical nearest-neighbor distance), and cluster-skewed data.
WORKLOADS = {
    "dense": {"generator": uniform_points, "eps": 1.5},
    "sparse": {"generator": uniform_points, "eps": 0.05},
    "skewed": {"generator": skewed_points, "eps": 0.3},
}

_STRATEGY_RE = re.compile(r"strategy=([a-z,-]+)/(\w+)")


def _make_db(points, mode, strategy=None):
    kwargs = {"tiebreak": "first"}
    if strategy is not None:
        key = "sgb_any_strategy" if mode == "any" else "sgb_all_strategy"
        kwargs[key] = strategy
    db = Database(**kwargs)
    db.execute("CREATE TABLE pts (id INT, x FLOAT, y FLOAT)")
    db.table("pts").insert_many(
        [(i, x, y) for i, (x, y) in enumerate(points)]
    )
    db.update_statistics()
    return db


def _query(mode, eps):
    clause = "DISTANCE-TO-ANY" if mode == "any" else "DISTANCE-TO-ALL"
    return (
        f"SELECT min(id), count(*) FROM pts "
        f"GROUP BY x, y {clause} L2 WITHIN {eps}"
    )


def _run_cell(points, mode, eps, repeats):
    """Time every forced strategy plus auto; return the cell record.

    Rounds are interleaved across strategies (round-robin, best-of) with
    the GC paused during timed regions, so background noise on a shared
    box hits every strategy equally instead of skewing whichever one ran
    during a slow phase.
    """
    strategies = ANY_STRATEGIES if mode == "any" else ALL_STRATEGIES
    sql = _query(mode, eps)
    dbs = {s: _make_db(points, mode, s) for s in strategies}
    auto_db = _make_db(points, mode)
    memberships = {}
    times = {s: float("inf") for s in strategies}
    best_auto = float("inf")
    gc.disable()
    try:
        for _ in range(repeats):
            for strategy, db in dbs.items():
                t0 = time.perf_counter()
                result = db.execute(sql)
                times[strategy] = min(
                    times[strategy], time.perf_counter() - t0
                )
                memberships[strategy] = tuple(sorted(result.rows))
            t0 = time.perf_counter()
            auto_result = auto_db.execute(sql)
            best_auto = min(best_auto, time.perf_counter() - t0)
    finally:
        gc.enable()

    match = _STRATEGY_RE.search(auto_db.explain_analyze(sql))
    chosen, source = match.groups() if match else (None, None)
    auto_membership = tuple(sorted(auto_result.rows))

    fastest = min(times, key=times.get)
    return {
        "mode": mode,
        "eps": eps,
        "n": len(points),
        "forced_times_s": times,
        "fastest_forced": fastest,
        "chosen": chosen,
        "choice_source": source,
        "chosen_without_density": choose_strategy(
            mode, len(points), None, eps)[0],
        "auto_time_s": best_auto,
        "n_groups": len(auto_membership),
        "memberships_identical": (
            len(set(memberships.values())) == 1
            and auto_membership == next(iter(memberships.values()))
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--n", type=int, default=None,
                        help="points per workload (default 4000; "
                             "800 with --quick)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats, best-of (default 3)")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed slowdown of the chosen strategy "
                             "vs the fastest forced one")
    parser.add_argument("--out", type=str, default=None,
                        help="output JSON path (default: BENCH_planner.json "
                             "at the repo root)")
    args = parser.parse_args(argv)

    n = args.n or (800 if args.quick else 4000)
    repeats = args.repeats or 3
    out_path = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "BENCH_planner.json"
    )

    cells = []
    failures = []
    for name, spec in WORKLOADS.items():
        points = spec["generator"](n)
        for mode in ("any", "all"):
            cell = _run_cell(points, mode, spec["eps"], repeats)
            cell["workload"] = name
            cells.append(cell)

            best = cell["forced_times_s"][cell["fastest_forced"]]
            chosen_time = cell["forced_times_s"].get(cell["chosen"])
            # Judge the *choice* (the chosen strategy's forced time),
            # not the auto run's wall clock, so plan-time ANALYZE and
            # timer noise don't drown the signal; a 2 ms floor keeps
            # micro-cells from failing on scheduler jitter.
            limit = max(best * (1.0 + args.tolerance), best + 0.002)
            ok = (
                chosen_time is not None
                and chosen_time <= limit
                and cell["memberships_identical"]
                and cell["choice_source"] == "auto"
            )
            cell["within_tolerance"] = ok
            if not ok:
                failures.append(cell)
            print(
                f"[{name:>6}/{mode}] chose {cell['chosen']}/"
                f"{cell['choice_source']} "
                f"(fastest {cell['fastest_forced']}, without density "
                f"{cell['chosen_without_density']}): "
                + " ".join(
                    f"{s}={t * 1000:.1f}ms"
                    for s, t in cell["forced_times_s"].items()
                )
                + f" auto={cell['auto_time_s'] * 1000:.1f}ms "
                f"identical={cell['memberships_identical']} "
                f"{'OK' if ok else 'MISS'}"
            )

    payload = {
        "benchmark": "cost-based-sgb-strategy-chooser",
        "stamp": bench_stamp(),
        "config": {
            "n": n,
            "repeats": repeats,
            "tolerance": args.tolerance,
            "quick": args.quick,
            "workloads": {k: v["eps"] for k, v in WORKLOADS.items()},
        },
        "cells": cells,
        "summary": {
            "cells": len(cells),
            "chooser_within_tolerance": len(cells) - len(failures),
            "memberships_identical": all(
                c["memberships_identical"] for c in cells
            ),
            "density_changes_pick": sum(
                c["chosen"] != c["chosen_without_density"] for c in cells
            ),
            "all_ok": not failures,
        },
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"{payload['summary']['density_changes_pick']} of {len(cells)} "
          f"cells pick differently without density")
    print(f"wrote {out_path}")
    if failures:
        for cell in failures:
            print(
                f"ERROR: {cell['workload']}/{cell['mode']}: chose "
                f"{cell['chosen']} ({cell['choice_source']}), fastest was "
                f"{cell['fastest_forced']}, identical="
                f"{cell['memberships_identical']}",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
