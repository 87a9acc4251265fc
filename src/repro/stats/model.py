"""The planner's cost model: per-node cardinality and cost estimates.

Costs follow PostgreSQL's shape — an abstract unit where processing one
tuple through one operator costs :data:`CPU_TUPLE_COST` — and every plan
node carries a :class:`PlanEstimate` with a *startup* cost (spent before
the first row can be produced; blocking operators like Sort and the SGB
aggregate pay everything up front) and a *total* cost (startup + the cost
of producing all rows).  Absolute values are meaningless; only ratios
between alternative plans matter, which is all the chooser needs.

This module is arithmetic: it knows nothing about plans or tables, so
both the estimator (which walks physical plans) and the SGB strategy
chooser can share it without import cycles.  The one thing it asks of
the operators is what a strategy name means
(:func:`_canonical_strategy`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.sgb_all import all_strategy_class
from repro.core.sgb_any import any_strategy_class
from repro.errors import InvalidParameterError

#: Cost of emitting one tuple from a node (PostgreSQL: cpu_tuple_cost).
CPU_TUPLE_COST = 0.01
#: Cost of one expression/comparator evaluation (cpu_operator_cost).
CPU_OPERATOR_COST = 0.0025
#: Cost of inserting one row into a hash table (build side of a join,
#: the aggregate hash table, the Distinct set).
HASH_ENTRY_COST = 0.015
#: Cost of one index descent (B+tree or R-tree probe), excluding the
#: per-candidate verification charged separately.
INDEX_PROBE_COST = 0.005

#: Default selectivities when no statistics can say better
#: (PostgreSQL's eqsel/ineqsel defaults).
DEFAULT_EQ_SELECTIVITY = 0.005
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
#: Catch-all for predicates the estimator cannot decompose.
DEFAULT_SELECTIVITY = 0.25


@dataclass
class PlanEstimate:
    """Estimated output cardinality and cost of one plan node.

    ``rows`` is a float internally (selectivity math), rendered as a
    rounded integer.  ``startup_cost`` is the cost paid before the first
    output row; ``total_cost`` includes producing every row, children
    included (like PostgreSQL's EXPLAIN, costs are inclusive).
    """

    rows: float
    startup_cost: float
    total_cost: float

    def __post_init__(self) -> None:
        self.rows = max(0.0, self.rows)
        self.startup_cost = max(0.0, self.startup_cost)
        self.total_cost = max(self.startup_cost, self.total_cost)

    @property
    def rows_int(self) -> int:
        return max(0, int(round(self.rows)))

    def render(self) -> str:
        """The EXPLAIN annotation: ``cost=0.00..4.25 rows=12``."""
        return (
            f"cost={self.startup_cost:.2f}..{self.total_cost:.2f} "
            f"rows={self.rows_int}"
        )


def clamp_rows(rows: float, upper: float) -> float:
    """Clamp an output-cardinality estimate into ``[0, upper]`` (a node
    cannot produce more rows than its input allows) while keeping at
    least one row whenever the input is non-empty."""
    if upper <= 0:
        return 0.0
    return min(max(1.0, rows), upper)


def sort_cost(n: float) -> float:
    """Comparison cost of sorting ``n`` rows (n log2 n comparator calls)."""
    if n <= 1:
        return CPU_OPERATOR_COST
    return 2.0 * n * math.log2(n) * CPU_OPERATOR_COST


#: Scale from the calibrated per-point work units below into abstract
#: cost units, so SGB node costs stay comparable to the relational ones.
_SGB_UNIT = 10.0 * CPU_OPERATOR_COST


def _canonical_strategy(mode: str, strategy: str) -> str:
    """The name the operators' alias tables give ``strategy``
    (``"linear"`` and ``" All-Pairs "`` are ``"all-pairs"``), so every
    spelling the operators accept is priced as the strategy it runs.  A
    name they do not know is returned as it came: it is priced
    pessimistically here and refused by the operator."""
    resolve = all_strategy_class if mode == "all" else any_strategy_class
    try:
        return resolve(strategy).name
    except InvalidParameterError:
        return strategy


def sgb_strategy_cost(mode: str, strategy: str, n: float,
                      avg_neighbors: float) -> float:
    """Abstract cost of grouping ``n`` points with one SGB strategy.

    ``avg_neighbors`` is the expected number of already-processed points
    (SGB-Any) or candidate-group members (SGB-All) within ``ε`` of a
    probe point — the density statistic the ANALYZE histograms provide.

    The shapes mirror the complexity analysis of the paper's strategies;
    the constants are calibrated against ``benchmarks/bench_planner.py``
    measurements (dense / sparse / skewed × n ∈ {800, 4000}) so the
    ranking tracks real wall clock on a pure-python build:

    * SGB-Any all-pairs is a quadratic scan with a tiny per-pair
      constant, the grid runs as one set-at-a-time ε-join (a per-point
      term for binning, sorting and the range searches, plus a
      per-candidate-pair term for the vectorized verification and
      component fold), and the R-tree pays a logarithmic descent with
      python-object constants per level.
    * SGB-All strategies additionally walk candidate *groups*: all-pairs
      re-checks every stored member and scans the group list (dominant
      when groups ≈ n), bounds-checking rejects most groups with one
      cheap rectangle test, the R-tree probes group rectangles.  The
      batch-only ``graph`` joins the input once and counts over each
      point's ε-neighbours, so it is priced like SGB-Any's grid.
    """
    strategy = _canonical_strategy(mode, strategy)
    n = max(1.0, n)
    k = max(0.0, avg_neighbors)
    groups = n / (k + 1.0)
    if mode == "all":
        groups *= 1.5  # DISTANCE-TO-ALL fragments into smaller groups
        if strategy == "all-pairs":
            # Every stored member distance-checked, plus a per-group
            # scan that dominates on sparse data (groups -> n).
            per_point = (n / 2.0) * (0.15 + 0.6 / (k + 1.0))
        elif strategy == "bounds-checking":
            # Constant bookkeeping + one rectangle test per live group.
            per_point = 40.0 + 0.02 * groups
        elif strategy == "index":
            per_point = 8.0 * math.log2(n + 1.0) + 0.025 * groups
        elif strategy == "graph":
            # One ε-self-join, then a count over each point's neighbours
            # (again per FORM-NEW-GROUP regroup pass): 9-17 µs a point at
            # k < 2, 23-50 at k = 25, 26-128 at k = 94 through SQL at
            # n = 1500 (a unit here is about 0.75 µs).
            per_point = 10.0 + 0.3 * k
        else:
            per_point = n  # unknown: pessimistic quadratic
    else:
        if strategy == "all-pairs":
            # One vectorized distance pass over all stored points per
            # probe: a flat dispatch overhead plus a small per-point term.
            per_point = 15.0 + 0.014 * n
        elif strategy == "grid":
            # Whole-input join: 4.9-7.3 per point at k < 10, 9.5 at
            # k = 84 and 24.0 at k = 335 (bench_planner's generators,
            # n = 4000 / 16000).
            per_point = 5.5 + 0.055 * k
        elif strategy == "index":
            per_point = 12.5 * math.log2(n + 1.0) + 1.4 * k
        else:
            per_point = n  # unknown: pessimistic quadratic
    return n * per_point * _SGB_UNIT


def sgb_group_estimate(mode: str, n: float, avg_neighbors: float) -> float:
    """Expected number of output groups for an SGB aggregation.

    With ``k`` expected ε-neighbours per point, SGB-Any components hold
    about ``k + 1`` points each; SGB-All cliques are smaller than
    components, so the estimate is biased up by a constant factor.
    """
    if n <= 0:
        return 0.0
    k = max(0.0, avg_neighbors)
    groups = n / (k + 1.0)
    if mode == "all":
        groups *= 1.5
    return clamp_rows(groups, n)
