"""Table statistics and the cost-based planner support (ANALYZE).

Three layers, lowest first:

:mod:`repro.stats.collect`
    The ANALYZE pass — per-table/column row counts, ndv, min/max, and
    small equi-width density histograms over numeric columns.
:mod:`repro.stats.model`
    The PostgreSQL-style cost arithmetic (:class:`PlanEstimate`,
    startup/total costs, default selectivities, SGB strategy cost
    formulas).
:mod:`repro.stats.estimator` / :mod:`repro.stats.chooser`
    The plan walker that attaches a :class:`PlanEstimate` to every
    physical operator, and the chooser that ranks the SGB strategies for
    one partition's size and density (unless a user flag names one).
"""

from repro.stats.chooser import AUTO, choose_strategy
from repro.stats.collect import (
    ColumnStats,
    DensityHistogram,
    TableStats,
    analyze_table,
)
from repro.stats.estimator import (
    column_stats_for,
    estimate_plan,
    predicate_selectivity,
    sgb_eps_fraction,
    table_stats_for,
)
from repro.stats.model import PlanEstimate

__all__ = [
    "AUTO",
    "ColumnStats",
    "DensityHistogram",
    "PlanEstimate",
    "TableStats",
    "analyze_table",
    "choose_strategy",
    "column_stats_for",
    "estimate_plan",
    "predicate_selectivity",
    "sgb_eps_fraction",
    "table_stats_for",
]
