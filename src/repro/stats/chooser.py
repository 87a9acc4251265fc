"""The SGB strategy chooser: statistics in, execution decisions out.

This is the piece the paper delegates to the PostgreSQL optimizer (§8.2):
given the estimated input cardinality and the ε-neighbourhood density the
ANALYZE histograms predict, pick the cheapest grouping strategy
(All-Pairs vs Bounds-Checking vs R-tree vs ε-graph for SGB-All; All-Pairs
vs R-tree vs grid for SGB-Any) and the parallel worker count — instead of
trusting user flags.  Flags still win when given: a concrete strategy string in
:class:`~repro.engine.executor.sgb.SGBConfig` is an override, and only
the ``"auto"`` sentinel engages the chooser.

All strategies produce bit-identical memberships for the same input
(candidate lists are kept in group-creation order everywhere), so the
choice is purely a performance decision — the correctness property the
planner bench gates on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.stats.model import sgb_strategy_cost

#: Sentinel strategy / parallel values meaning "let the chooser decide".
AUTO = "auto"

#: Strategies the chooser ranks, per mode.
ANY_STRATEGIES: Tuple[str, ...] = ("all-pairs", "index", "grid")
ALL_STRATEGIES: Tuple[str, ...] = (
    "all-pairs", "bounds-checking", "index", "graph")

#: Fallbacks when the chooser has nothing to go on (no stats, tiny input).
DEFAULT_ANY_STRATEGY = "index"
DEFAULT_ALL_STRATEGY = "index"

#: Below this many points per partition every strategy finishes instantly;
#: the on-the-fly scan has the smallest constant.  Kept small: in ALL
#: mode the per-group scan makes all-pairs lose to bounds-checking well
#: before n=400 on sparse data.
SMALL_INPUT = 128

#: What handing partitions to the process pool costs, in the units of
#: :func:`~repro.stats.model.sgb_strategy_cost` (about 0.03 ms each on
#: the 2-core calibration box): forking and joining the workers, and
#: pickling every point out and its label back.  Fitted to pool-minus-
#: half-of-serial over brightkite at ε 0.1 through SQL (39 / 78 / 147 ms
#: at 5k / 16k / 32k rows: 25 ms + 3.8 µs per row, paid against the half
#: of the work a second core takes over); docs/architecture.md has the
#: table.
POOL_STARTUP_COST = 800.0
POOL_COST_PER_POINT = 0.25

#: Most directed ε-graph edges (``n·k``) SGB-All's ``graph`` may hold: its
#: CSR adjacency peaks at about 70 bytes a directed edge (tracemalloc,
#: uniform n = 4000 at ε 1.5: 266k edges, 18.8 MB), so this keeps it
#: near 70 MB.
MAX_GRAPH_EDGES = 1_000_000


@dataclass
class SGBChoice:
    """One resolved execution decision, with provenance for EXPLAIN."""

    strategy: str
    parallel: int
    source: str  # "stats" | "flag" | "default"
    reason: str
    est_points: float = 0.0
    est_neighbors: float = 0.0
    costs: Optional[Dict[str, float]] = None


def choose_strategy(mode: str, n: float, avg_neighbors: Optional[float],
                    eps: float) -> Tuple[str, str, Dict[str, float]]:
    """Rank the mode's strategies by modelled cost.

    Returns ``(strategy, reason, costs)``.  ``avg_neighbors`` is the
    expected ε-ball occupancy from the density histograms (None when no
    stats were available — the density-sensitive strategies then assume a
    moderate occupancy instead of winning or losing by default).
    """
    candidates = ALL_STRATEGIES if mode == "all" else ANY_STRATEGIES
    if n <= SMALL_INPUT:
        return (
            "all-pairs",
            f"n={n:.0f} <= {SMALL_INPUT}: scan constant wins",
            {},
        )
    k = avg_neighbors if avg_neighbors is not None else min(n, 16.0)
    if eps <= 0:
        # Degenerates to equality grouping; neither the grid nor the
        # ε-graph's join can bin by a zero ε.
        candidates = tuple(s for s in candidates
                           if s not in ("grid", "graph"))
    elif mode == "all" and n * k > MAX_GRAPH_EDGES:
        candidates = tuple(s for s in candidates if s != "graph")
    costs = {s: sgb_strategy_cost(mode, s, n, k) for s in candidates}
    best = min(costs, key=lambda s: costs[s])
    reason = (
        f"n={n:.0f} k={k:.1f}: "
        + " ".join(f"{s}={costs[s]:.0f}" for s in candidates)
    )
    return best, reason, costs


def choose_parallel(mode: str, strategy: str, n: float,
                    avg_neighbors: Optional[float],
                    n_partitions: Optional[float],
                    cpu_count: Optional[int] = None) -> int:
    """Worker-process count for PARTITION BY execution.

    Parallelism only pays when there are at least two partitions to farm
    out, more than one CPU to run them on, and the modelled work the
    extra workers take over — ``strategy``'s cost over every partition,
    less the one worker's share that stays serial — exceeds what the
    dispatch costs.  The set-at-a-time SGB-Any ``grid`` does less work
    per point than pickling it costs and never gets a pool; SGB-All
    earns one from a few thousand rows.  Returns ``0`` (serial)
    otherwise; the result feeds
    :func:`repro.core.parallel.resolve_workers` unchanged.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    if cpus <= 1 or not n_partitions or n_partitions < 2:
        return 0
    workers = int(min(cpus, n_partitions))
    k = avg_neighbors if avg_neighbors is not None else min(n, 16.0)
    serial = n_partitions * sgb_strategy_cost(
        mode, strategy, n / n_partitions, k)
    if serial * (1.0 - 1.0 / workers) <= (
            POOL_STARTUP_COST + POOL_COST_PER_POINT * n):
        return 0
    return workers


def resolve_sgb_choice(
    mode: str,
    configured: str,
    eps: float,
    est_points: Optional[float],
    avg_neighbors: Optional[float],
    configured_parallel: Optional[int],
    est_partitions: Optional[float],
) -> SGBChoice:
    """Resolve a (possibly ``"auto"``) configured strategy into a concrete
    :class:`SGBChoice`, demoting flags to overrides."""
    costs: Optional[Dict[str, float]] = None
    if configured != AUTO:
        strategy, source = configured, "flag"
        reason = "strategy forced by flag"
    elif est_points is None:
        strategy = (DEFAULT_ALL_STRATEGY if mode == "all"
                    else DEFAULT_ANY_STRATEGY)
        source, reason = "default", "no statistics available"
    else:
        strategy, reason, costs = choose_strategy(mode, est_points,
                                                  avg_neighbors, eps)
        source = "stats"
    if configured_parallel is None:
        parallel = choose_parallel(mode, strategy, est_points or 0.0,
                                   avg_neighbors, est_partitions)
    else:
        parallel = configured_parallel
    return SGBChoice(
        strategy=strategy,
        parallel=parallel,
        source=source,
        reason=reason,
        est_points=est_points or 0.0,
        est_neighbors=avg_neighbors if avg_neighbors is not None else -1.0,
        costs=costs or None,
    )
