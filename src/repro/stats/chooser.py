"""The SGB strategy chooser: statistics in, a strategy out.

This is the piece the paper delegates to the PostgreSQL optimizer (§8.2):
given the estimated input cardinality and the ε-neighbourhood density the
ANALYZE histograms predict, pick the cheapest grouping strategy
(All-Pairs vs Bounds-Checking vs R-tree vs ε-graph for SGB-All; All-Pairs
vs R-tree vs grid for SGB-Any) instead of trusting user flags.  Flags
still win when given: a concrete strategy string in
:class:`~repro.engine.executor.sgb.SGBConfig` is an override, and only
the ``"auto"`` sentinel engages the chooser.  The array API
(:func:`repro.core.api.sgb_all` / :func:`~repro.core.api.sgb_any`) ranks
by the same :func:`choose_strategy`, with the exact point count and no
density statistics.

All strategies produce bit-identical memberships for the same input
(candidate lists are kept in group-creation order everywhere), so the
choice is purely a performance decision — the correctness property the
planner bench gates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.stats.model import sgb_strategy_cost

#: Sentinel strategy value meaning "let the chooser decide".
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

#: Most directed ε-graph edges (``n·k``) SGB-All's ``graph`` may hold: its
#: CSR adjacency peaks at about 70 bytes a directed edge (tracemalloc,
#: uniform n = 4000 at ε 1.5: 266k edges, 18.8 MB), so this keeps it
#: near 70 MB.
MAX_GRAPH_EDGES = 1_000_000


@dataclass
class SGBChoice:
    """One resolved execution decision, with provenance for EXPLAIN."""

    strategy: str
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


def resolve_sgb_choice(
    mode: str,
    configured: str,
    eps: float,
    est_points: Optional[float],
    avg_neighbors: Optional[float],
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
    return SGBChoice(
        strategy=strategy,
        source=source,
        reason=reason,
        est_points=est_points or 0.0,
        est_neighbors=avg_neighbors if avg_neighbors is not None else -1.0,
        costs=costs or None,
    )
