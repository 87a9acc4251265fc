"""Bottom-up plan estimation: a :class:`PlanEstimate` on every node.

:func:`estimate_plan` walks a physical operator tree and attaches an
estimated output cardinality plus startup/total cost (the
``PhysicalOperator._estimate`` slot) to every node, PostgreSQL-style:
costs are inclusive of children, blocking operators carry their whole
input cost as startup.  Cardinalities come from the ANALYZE statistics
cached on heap tables (:meth:`repro.engine.table.Table.active_stats`)
when they are available and from PostgreSQL-style default selectivities
when they are not, so every plan gets estimates even on never-analyzed
data.

The same statistics tell the SGB node how dense its input is
(:func:`sgb_eps_fraction`, the expected fraction of points within ε of a
point, from the per-column density histograms under an independence
assumption); the node's strategy is picked at run time, per partition,
from that fraction and the partition's exact size.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.engine.executor.aggregate import HashAggregate
from repro.engine.executor.base import PhysicalOperator
from repro.engine.executor.relational import (
    Concat,
    Distinct,
    Filter,
    HashJoin,
    Limit,
    NestedLoopJoin,
    Project,
    SimilarityJoin,
    Sort,
)
from repro.engine.executor.scans import (
    IndexScan,
    SeqScan,
    SubqueryScan,
    ValuesScan,
)
from repro.engine.executor.sgb import (
    SGB1DAggregate,
    SGBAggregate,
    SGBAroundAggregate,
)
from repro.sql import ast_nodes as ast
from repro.sql.exprutil import extract_const_comparison, split_conjuncts
from repro.stats.chooser import AUTO, choose_strategy
from repro.stats.collect import ColumnStats, TableStats, column_coordinate
from repro.stats.model import (
    CPU_OPERATOR_COST,
    CPU_TUPLE_COST,
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    DEFAULT_SELECTIVITY,
    HASH_ENTRY_COST,
    INDEX_PROBE_COST,
    PlanEstimate,
    clamp_rows,
    sgb_group_estimate,
    sgb_strategy_cost,
    sort_cost,
)

#: Wrappers that pass their child's columns through unchanged, so a
#: column reference above them resolves against statistics below them.
_TRANSPARENT = (Filter, Sort, Limit, Distinct)


# ----------------------------------------------------------------------
# column statistics resolution through a plan
# ----------------------------------------------------------------------
def table_stats_for(plan: PhysicalOperator) -> Optional[TableStats]:
    """Statistics of the base table feeding ``plan``, looking through
    row-preserving wrappers; None past a Project/aggregate boundary."""
    while isinstance(plan, _TRANSPARENT):
        plan = plan.child  # type: ignore[attr-defined]
    if isinstance(plan, (SeqScan, IndexScan)):
        return plan.table.active_stats()
    return None


def column_stats_for(plan: PhysicalOperator,
                     ref: ast.ColumnRef) -> Optional[ColumnStats]:
    """Resolve a column reference to its base-table statistics, descending
    through transparent wrappers and down the matching side of joins."""
    while isinstance(plan, _TRANSPARENT):
        plan = plan.child  # type: ignore[attr-defined]
    if isinstance(plan, Project):
        # A projected output column keeps its source statistics when it
        # is a plain column reference (renames included).
        for col, expr in zip(plan.schema, plan._exprs):
            if col.name == ref.name.lower():
                if isinstance(expr, ast.ColumnRef):
                    return column_stats_for(plan.child, expr)
                return None
        return None
    if isinstance(plan, (SeqScan, IndexScan)):
        if ref.qualifier is not None and ref.qualifier != plan.alias:
            return None
        if plan.schema.maybe_resolve(ref.name, ref.qualifier) is None:
            return None
        stats = plan.table.active_stats()
        return stats.column(ref.name) if stats is not None else None
    if isinstance(plan, (HashJoin, NestedLoopJoin, SimilarityJoin)):
        left, right = plan.left, plan.right
        if left.schema.maybe_resolve(ref.name, ref.qualifier) is not None:
            return column_stats_for(left, ref)
        if right.schema.maybe_resolve(ref.name, ref.qualifier) is not None:
            return column_stats_for(right, ref)
    return None


def _expr_column_stats(plan: PhysicalOperator,
                       expr: ast.Expr) -> Optional[ColumnStats]:
    if isinstance(expr, ast.ColumnRef):
        return column_stats_for(plan, expr)
    return None


# ----------------------------------------------------------------------
# predicate selectivity
# ----------------------------------------------------------------------
def _comparison_selectivity(plan: PhysicalOperator,
                            conj: ast.Expr) -> Optional[float]:
    bound = extract_const_comparison(conj)
    if bound is None:
        return None
    ref, op, low, high = bound
    cstats = column_stats_for(plan, ref)
    if op == "=":
        if cstats is not None and cstats.ndv > 0:
            return cstats.eq_selectivity()
        return DEFAULT_EQ_SELECTIVITY
    lo_c = column_coordinate(low)
    hi_c = column_coordinate(high) if high is not None else None
    if cstats is not None and lo_c is not None:
        if op == "between" and hi_c is not None:
            sel = cstats.range_selectivity(lo_c, hi_c)
        elif op in ("<", "<="):
            sel = cstats.range_selectivity(None, lo_c)
        elif op in (">", ">="):
            sel = cstats.range_selectivity(lo_c, None)
        else:  # pragma: no cover - ops are exhausted above
            sel = None
        if sel is not None:
            return sel
    if op == "between":
        return DEFAULT_RANGE_SELECTIVITY / 2.0
    return DEFAULT_RANGE_SELECTIVITY


def conjunct_selectivity(plan: PhysicalOperator, conj: ast.Expr) -> float:
    """Selectivity of a single predicate conjunct against ``plan``'s rows."""
    sel = _comparison_selectivity(plan, conj)
    if sel is not None:
        return sel
    if isinstance(conj, ast.BinaryOp):
        if (conj.op == "="
                and isinstance(conj.left, ast.ColumnRef)
                and isinstance(conj.right, ast.ColumnRef)):
            # col = col (join-style equality): 1/max(ndv), PostgreSQL's
            # eqjoinsel — keeps nested-loop and hash-join candidates of
            # the same logical join agreeing on output cardinality.
            lstats = column_stats_for(plan, conj.left)
            rstats = column_stats_for(plan, conj.right)
            ndv = max(
                lstats.ndv if lstats is not None else 0,
                rstats.ndv if rstats is not None else 0,
            )
            return 1.0 / ndv if ndv > 0 else DEFAULT_EQ_SELECTIVITY
        if conj.op == "or":
            s1 = predicate_selectivity(plan, conj.left)
            s2 = predicate_selectivity(plan, conj.right)
            return min(1.0, s1 + s2 - s1 * s2)
        if conj.op in ("!=", "<>"):
            eq = ast.BinaryOp("=", conj.left, conj.right)
            inverse = _comparison_selectivity(plan, eq)
            if inverse is not None:
                return max(0.0, 1.0 - inverse)
    if isinstance(conj, ast.UnaryOp) and conj.op == "not":
        return max(0.0, 1.0 - predicate_selectivity(plan, conj.operand))
    if isinstance(conj, ast.IsNull):
        cstats = _expr_column_stats(plan, conj.operand)
        if cstats is not None:
            frac = cstats.null_fraction
            return (1.0 - frac) if conj.negated else frac
        return DEFAULT_EQ_SELECTIVITY if not conj.negated else 1.0
    if isinstance(conj, ast.InList):
        eq = DEFAULT_EQ_SELECTIVITY
        cstats = _expr_column_stats(plan, conj.operand)
        if cstats is not None and cstats.ndv > 0:
            eq = cstats.eq_selectivity()
        sel = min(1.0, eq * max(1, len(conj.items)))
        return (1.0 - sel) if conj.negated else sel
    return DEFAULT_SELECTIVITY


def predicate_selectivity(plan: PhysicalOperator,
                          predicate: Optional[ast.Expr]) -> float:
    """Combined selectivity of a (possibly AND-ed) predicate."""
    if predicate is None:
        return 1.0
    sel = 1.0
    for conj in split_conjuncts(predicate):
        sel *= conjunct_selectivity(plan, conj)
    return max(0.0, min(1.0, sel))


# ----------------------------------------------------------------------
# SGB density / partition estimates
# ----------------------------------------------------------------------
def sgb_eps_fraction(child: PhysicalOperator, key_exprs,
                     eps: float) -> Optional[float]:
    """Expected fraction of an SGB's input within ε of one of its points.

    Multiplies each grouping dimension's density-weighted ε-fraction
    (from the ANALYZE histogram) under an independence assumption; times
    a partition's n it is the expected ε-neighbourhood occupancy.  None
    when any grouping expression is not a plain column or lacks a
    histogram — the chooser then treats the occupancy as unknown.
    """
    if not key_exprs:
        return None
    fraction = 1.0
    for expr in key_exprs:
        if not isinstance(expr, ast.ColumnRef):
            return None
        cstats = column_stats_for(child, expr)
        if cstats is None or cstats.histogram is None:
            return None
        fraction *= cstats.histogram.eps_fraction(eps)
    return fraction


def estimate_ndv_product(plan: PhysicalOperator, exprs) -> Optional[float]:
    """Product of the distinct-value counts of a list of key expressions
    (the group-count estimate for equality keys); None without stats."""
    if not exprs:
        return None
    product = 1.0
    for expr in exprs:
        if not isinstance(expr, ast.ColumnRef):
            return None
        cstats = column_stats_for(plan, expr)
        if cstats is None or cstats.ndv <= 0:
            return None
        product *= cstats.ndv
    return product


# ----------------------------------------------------------------------
# the estimator proper
# ----------------------------------------------------------------------
def estimate_plan(plan: PhysicalOperator) -> PlanEstimate:
    """Estimate ``plan`` bottom-up, attach a :class:`PlanEstimate` to every
    node (``node._estimate``), and return the root's estimate.

    Idempotent: re-running recomputes everything from current table
    statistics, so the planner can estimate a subtree early (to drive a
    choice) and the whole tree once assembly is done.
    """
    est = _estimate_node(plan)
    plan._estimate = est
    return est


def _estimate_node(plan: PhysicalOperator) -> PlanEstimate:
    child_ests = [estimate_plan(c) for c in plan.children()]

    if isinstance(plan, SeqScan):
        n = float(len(plan.table.rows))
        return PlanEstimate(n, 0.0, n * CPU_TUPLE_COST)

    if isinstance(plan, IndexScan):
        return _estimate_index_scan(plan)

    if isinstance(plan, Filter):
        (child,) = child_ests
        sel = predicate_selectivity(plan.child, plan._predicate_expr)
        rows = clamp_rows(child.rows * sel, child.rows)
        total = child.total_cost + child.rows * CPU_OPERATOR_COST
        return PlanEstimate(rows, child.startup_cost, total)

    if isinstance(plan, Project):
        (child,) = child_ests
        total = child.total_cost + child.rows * CPU_OPERATOR_COST * max(
            1, len(plan._exprs)
        )
        return PlanEstimate(child.rows, child.startup_cost, total)

    if isinstance(plan, HashJoin):
        left, right = child_ests
        return _estimate_hash_join(plan, left, right)

    if isinstance(plan, NestedLoopJoin):
        left, right = child_ests
        sel = (
            predicate_selectivity(plan, plan._condition_expr)
            if plan._condition_expr is not None else 1.0
        )
        cross = left.rows * right.rows
        rows = clamp_rows(cross * sel, cross)
        if plan.outer:
            rows = max(rows, left.rows)
        startup = left.startup_cost + right.total_cost
        # Every pair materializes a combined tuple before the condition
        # runs — the constant that makes hash probing worth it.
        total = (
            left.total_cost + right.total_cost
            + cross * (CPU_TUPLE_COST + CPU_OPERATOR_COST)
            + rows * CPU_TUPLE_COST
        )
        return PlanEstimate(rows, startup, total)

    if isinstance(plan, SimilarityJoin):
        left, right = child_ests
        return _estimate_similarity_join(plan, left, right)

    if isinstance(plan, Concat):
        rows = sum(e.rows for e in child_ests)
        startup = child_ests[0].startup_cost if child_ests else 0.0
        total = sum(e.total_cost for e in child_ests)
        return PlanEstimate(rows, startup, total)

    if isinstance(plan, Sort):
        (child,) = child_ests
        startup = child.total_cost + sort_cost(child.rows) * max(
            1, len(plan._key_fns)
        )
        return PlanEstimate(child.rows, startup,
                            startup + child.rows * CPU_TUPLE_COST)

    if isinstance(plan, Limit):
        (child,) = child_ests
        rows = min(float(plan.limit), child.rows)
        # Fractional cost: the child only runs far enough to produce the
        # first ``limit`` rows (PostgreSQL's LIMIT costing).
        run = child.total_cost - child.startup_cost
        fraction = rows / child.rows if child.rows > 0 else 0.0
        total = child.startup_cost + run * fraction + rows * CPU_TUPLE_COST
        return PlanEstimate(rows, child.startup_cost, total)

    if isinstance(plan, Distinct):
        (child,) = child_ests
        ndv = estimate_ndv_product(
            plan.child,
            [ast.ColumnRef(c.name, c.qualifier) for c in plan.child.schema],
        )
        rows = clamp_rows(ndv, child.rows) if ndv is not None else child.rows
        total = child.total_cost + child.rows * HASH_ENTRY_COST
        return PlanEstimate(rows, child.startup_cost, total)

    if isinstance(plan, HashAggregate):
        (child,) = child_ests
        groups = estimate_ndv_product(plan.child, plan._key_exprs)
        if plan._n_keys == 0:
            rows = 1.0
        elif groups is not None:
            rows = clamp_rows(groups, child.rows)
        else:
            rows = clamp_rows(child.rows / 10.0, child.rows)
        startup = child.total_cost + child.rows * (
            HASH_ENTRY_COST + len(plan._specs) * CPU_OPERATOR_COST
        )
        return PlanEstimate(rows, startup, startup + rows * CPU_TUPLE_COST)

    if isinstance(plan, SGBAggregate):
        (child,) = child_ests
        return _estimate_sgb(plan, child)

    if isinstance(plan, SGBAroundAggregate):
        (child,) = child_ests
        rows = clamp_rows(float(len(plan.centers)), child.rows)
        startup = child.total_cost + child.rows * len(plan.centers) * (
            CPU_OPERATOR_COST
        )
        return PlanEstimate(rows, startup, startup + rows * CPU_TUPLE_COST)

    if isinstance(plan, SGB1DAggregate):
        (child,) = child_ests
        if plan.kind == "around":
            rows = clamp_rows(float(len(plan.centers)), child.rows)
        else:
            rows = clamp_rows(child.rows**0.5, child.rows)
        startup = child.total_cost + sort_cost(child.rows)
        return PlanEstimate(rows, startup, startup + rows * CPU_TUPLE_COST)

    if isinstance(plan, SubqueryScan):
        (child,) = child_ests
        return PlanEstimate(child.rows, child.startup_cost, child.total_cost)

    if isinstance(plan, ValuesScan):
        n = float(len(plan._rows))
        return PlanEstimate(n, 0.0, n * CPU_TUPLE_COST)

    # Unknown operator (future/streaming nodes): inherit the first
    # child's cardinality, sum child costs, charge a per-tuple pass.
    if child_ests:
        rows = child_ests[0].rows
        total = sum(e.total_cost for e in child_ests) + rows * CPU_TUPLE_COST
        return PlanEstimate(rows, child_ests[0].startup_cost, total)
    return PlanEstimate(1.0, 0.0, CPU_TUPLE_COST)


def _estimate_index_scan(plan: IndexScan) -> PlanEstimate:
    n = float(len(plan.table.rows))
    stats = plan.table.active_stats()
    cstats = stats.column(plan.index.column) if stats is not None else None
    if plan.low is not None and plan.low == plan.high:
        if cstats is not None and cstats.ndv > 0:
            sel = cstats.eq_selectivity()
        else:
            sel = DEFAULT_EQ_SELECTIVITY
    else:
        sel = None
        lo_c = column_coordinate(plan.low) if plan.low is not None else None
        hi_c = column_coordinate(plan.high) if plan.high is not None else None
        if cstats is not None and (
            (plan.low is None or lo_c is not None)
            and (plan.high is None or hi_c is not None)
        ):
            sel = cstats.range_selectivity(lo_c, hi_c)
        if sel is None:
            sel = DEFAULT_RANGE_SELECTIVITY
    rows = clamp_rows(n * sel, n)
    total = (
        INDEX_PROBE_COST * math.log2(n + 2.0)
        + rows * (CPU_TUPLE_COST + CPU_OPERATOR_COST)
    )
    return PlanEstimate(rows, 0.0, total)


def _estimate_hash_join(plan: HashJoin, left: PlanEstimate,
                        right: PlanEstimate) -> PlanEstimate:
    sel = 1.0
    for lkey, rkey in zip(plan._left_key_exprs, plan._right_key_exprs):
        lstats = _expr_column_stats(plan.left, lkey)
        rstats = _expr_column_stats(plan.right, rkey)
        ndv = max(
            lstats.ndv if lstats is not None else 0,
            rstats.ndv if rstats is not None else 0,
        )
        sel *= (1.0 / ndv) if ndv > 0 else DEFAULT_EQ_SELECTIVITY
    if plan._residual_expr is not None:
        sel *= predicate_selectivity(plan, plan._residual_expr)
    cross = left.rows * right.rows
    rows = clamp_rows(cross * sel, cross)
    if plan.outer:
        rows = max(rows, left.rows)
    startup = left.startup_cost + right.total_cost + (
        right.rows * HASH_ENTRY_COST
    )
    total = (
        left.total_cost + right.total_cost
        + right.rows * HASH_ENTRY_COST
        + left.rows * CPU_OPERATOR_COST * max(1, len(plan._left_key_exprs))
        + rows * CPU_TUPLE_COST
    )
    return PlanEstimate(rows, startup, total)


def _estimate_similarity_join(plan: SimilarityJoin, left: PlanEstimate,
                              right: PlanEstimate) -> PlanEstimate:
    fraction: Optional[float] = 1.0
    for expr in plan._right_coord_exprs:
        cstats = _expr_column_stats(plan.right, expr)
        if cstats is None or cstats.histogram is None:
            fraction = None
            break
        fraction *= cstats.histogram.eps_fraction(plan.eps)
    if fraction is None:
        fraction = 0.01  # default match density for an ε-join
    cross = left.rows * right.rows
    rows = clamp_rows(cross * fraction, cross)
    build = right.total_cost + right.rows * (
        INDEX_PROBE_COST + CPU_OPERATOR_COST
    )
    probes = left.rows * (
        INDEX_PROBE_COST * math.log2(right.rows + 2.0)
        + fraction * right.rows * CPU_OPERATOR_COST
    )
    startup = left.startup_cost + build
    total = left.total_cost + build + probes + rows * CPU_TUPLE_COST
    return PlanEstimate(rows, startup, total)


def _estimate_sgb(plan: SGBAggregate, child: PlanEstimate) -> PlanEstimate:
    """Priced per estimated partition, an ``"auto"`` node at the
    strategy :func:`~repro.stats.chooser.choose_strategy` would run."""
    n = child.rows
    partitions = estimate_ndv_product(plan.child, plan._partition_exprs)
    if partitions is None or partitions < 1.0:
        partitions = 1.0
    per_partition = n / partitions
    k = None
    if plan.eps_fraction is not None:
        k = plan.eps_fraction * per_partition
    strategy = plan.configured
    if strategy == AUTO:
        strategy = choose_strategy(plan.mode, per_partition, k, plan.eps)[0]
    if k is None:
        k = min(per_partition, 16.0)  # the chooser's unknown-k assumption
    groups = partitions * sgb_group_estimate(plan.mode, per_partition, k)
    grouping = partitions * sgb_strategy_cost(
        plan.mode, strategy, per_partition, k
    )
    rows = clamp_rows(groups, n)
    startup = child.total_cost + n * CPU_TUPLE_COST + grouping
    return PlanEstimate(rows, startup, startup + rows * CPU_TUPLE_COST)
