"""The SGB strategy chooser: a partition's size in, a strategy out.

This is the piece the paper delegates to the PostgreSQL optimizer (§8.2):
given the number of points and, when known, their ε-neighbourhood
occupancy, pick the cheapest grouping strategy (All-Pairs vs
Bounds-Checking vs R-tree vs ε-graph for SGB-All; All-Pairs vs R-tree vs
grid for SGB-Any).  There is one rule and it runs at execution time:
:func:`repro.core.parallel.resolve_strategy` calls :func:`choose_strategy`
on each partition once its points are spooled, for the SQL node and the
array API alike.  SQL supplies the occupancy from the ANALYZE histograms
(their ε-fraction times the partition's n) when every grouping column
has one; otherwise, as in the array API, it is unknown.  A concrete
strategy name is an override; only the ``"auto"`` sentinel engages the
chooser.

All strategies produce bit-identical memberships for the same input
(candidate lists are kept in group-creation order everywhere), so the
choice is purely a performance decision — the correctness property the
planner bench gates on.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.stats.model import sgb_strategy_cost

#: Sentinel strategy value meaning "let the chooser decide".
AUTO = "auto"

#: Strategies the chooser ranks, per mode.
ANY_STRATEGIES: Tuple[str, ...] = ("all-pairs", "index", "grid")
ALL_STRATEGIES: Tuple[str, ...] = (
    "all-pairs", "bounds-checking", "index", "graph")

#: Below this many points per partition every strategy finishes instantly;
#: the on-the-fly scan has the smallest constant.  Kept small: in ALL
#: mode the per-group scan makes all-pairs lose to bounds-checking well
#: before n=400 on sparse data.
SMALL_INPUT = 128

#: Most directed ε-graph edges SGB-All's ``graph`` may hold: its CSR
#: adjacency peaks at about 70 bytes a directed edge (tracemalloc,
#: uniform n = 4000 at ε 1.5: 266k edges, 18.8 MB), so this keeps it
#: near 70 MB.  The modelled count is ``n·k``, or the worst case
#: ``n·(n−1)`` when ``k`` is unknown.
MAX_GRAPH_EDGES = 1_000_000


def choose_strategy(mode: str, n: float, avg_neighbors: Optional[float],
                    eps: float) -> Tuple[str, str, Dict[str, float]]:
    """Rank the mode's strategies by modelled cost.

    Returns ``(strategy, reason, costs)``.  ``avg_neighbors`` is the
    expected ε-ball occupancy from the density histograms, or None when
    it is unknown.  The density-sensitive costs then assume a moderate
    occupancy instead of winning or losing by default, but the ``graph``
    memory guard assumes the worst: every pair an edge.
    """
    candidates = ALL_STRATEGIES if mode == "all" else ANY_STRATEGIES
    if n <= SMALL_INPUT:
        return (
            "all-pairs",
            f"n={n:.0f} <= {SMALL_INPUT}: scan constant wins",
            {},
        )
    if avg_neighbors is None:
        k, edges = min(n, 16.0), n * (n - 1)
    else:
        k, edges = avg_neighbors, n * avg_neighbors
    if eps <= 0:
        # Degenerates to equality grouping; neither the grid nor the
        # ε-graph's join can bin by a zero ε.
        candidates = tuple(s for s in candidates
                           if s not in ("grid", "graph"))
    elif mode == "all" and edges > MAX_GRAPH_EDGES:
        candidates = tuple(s for s in candidates if s != "graph")
    costs = {s: sgb_strategy_cost(mode, s, n, k) for s in candidates}
    best = min(costs, key=lambda s: costs[s])
    reason = (
        f"n={n:.0f} k={k:.1f}: "
        + " ".join(f"{s}={costs[s]:.0f}" for s in candidates)
    )
    return best, reason, costs

