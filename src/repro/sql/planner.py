"""Planner: AST -> physical operator tree.

Mirrors the paper's description of the PostgreSQL integration (§8.2): the
parse tree carries the similarity parameters, and the planner chooses an
aggregation node — the standard hash aggregate for plain GROUP BY, or the
similarity-aware :class:`~repro.engine.executor.sgb.SGBAggregate` when a
``DISTANCE-TO-ALL`` / ``DISTANCE-TO-ANY`` clause is present.

Join planning is heuristic but real: WHERE conjuncts are pushed down to the
first source that can evaluate them, equi-conjuncts spanning exactly the two
sides of a join become hash-join keys, and everything else lands in
nested-loop conditions or residual filters.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.catalog import Catalog
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
from repro.engine.executor.sgb import SGBAggregate, SGBConfig
from repro.engine.schema import Schema
from repro.engine.types import ANY
from repro.errors import PlanningError
from repro.sql import ast_nodes as ast
from repro.sql.exprutil import (
    _FLIPPED_OP,
    and_all as _and_all,
    column_refs as _column_refs,
    extract_const_comparison as _extract_const_comparison,
    resolvable as _resolvable,
    split_conjuncts as _split_conjuncts,
)
from repro.stats import estimator as _estimator


class Planner:
    def __init__(self, catalog: Catalog, sgb_config: Optional[SGBConfig] = None):
        self.catalog = catalog
        self.sgb_config = sgb_config or SGBConfig()

    # ------------------------------------------------------------------
    # context plumbing
    # ------------------------------------------------------------------
    def _ctx_factory(self, schema: Schema) -> ast.BindContext:
        return ast.BindContext(schema, subquery_runner=self._run_subquery)

    def _run_subquery(self, select) -> List[tuple]:
        return self.plan_query(select).rows()

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def plan_query(self, node) -> PhysicalOperator:
        """Plan a SELECT or a UNION chain of SELECTs.

        The finished tree is run through the cost estimator, so every
        node carries an estimated cardinality and startup/total cost
        (surfaced by EXPLAIN and the obs/trace layer).
        """
        if isinstance(node, ast.Union):
            plan = self._plan_union(node)
        else:
            plan = self.plan_select(node)
        _estimator.estimate_plan(plan)
        return plan

    def _plan_union(self, union: ast.Union) -> PhysicalOperator:
        plans = [self.plan_select(s) for s in union.selects]
        first = plans[0]
        for branch in plans[1:]:
            _check_union_compatible(first, branch)
        # Left-associative UNION semantics, like PostgreSQL: each non-ALL
        # link applies DISTINCT over everything accumulated so far, so
        # ``A UNION B UNION ALL C`` deduplicates A+B but keeps C's
        # duplicates.  Adjacent ALL links collapse into one Concat.
        plan: PhysicalOperator = plans[0]
        for branch, all_link in zip(plans[1:], union.all_flags):
            if isinstance(plan, Concat):
                plan = Concat(plan.inputs + [branch])
            else:
                plan = Concat([plan, branch])
            if not all_link:
                plan = Distinct(plan)
        return plan

    def plan_select(self, select: ast.Select) -> PhysicalOperator:
        if select.where is not None and select.where.contains_aggregate():
            raise PlanningError("aggregates are not allowed in WHERE")

        plan = self._plan_from_where(select.from_items, select.where)

        has_agg = (
            bool(select.group_by)
            or select.similarity is not None
            or any(item.expr.contains_aggregate() for item in select.items)
            or (select.having is not None and select.having.contains_aggregate())
        )

        if isinstance(select.similarity, ast.AroundNDSpec):
            plan, rewriter = self._plan_around_nd_aggregate(select, plan)
        elif isinstance(select.similarity, ast.Similarity1DSpec):
            plan, rewriter = self._plan_sgb1d_aggregate(select, plan)
        elif select.similarity is not None:
            plan, rewriter = self._plan_sgb_aggregate(select, plan)
        elif has_agg:
            plan, rewriter = self._plan_hash_aggregate(select, plan)
        else:
            if select.having is not None:
                raise PlanningError("HAVING requires GROUP BY or aggregates")
            rewriter = None

        # HAVING
        if select.having is not None and rewriter is not None:
            plan = Filter(plan, rewriter(select.having), self._ctx_factory)

        # ORDER BY (pre-projection; aliases and positions are substituted).
        if select.order_by:
            key_exprs = []
            ascending = []
            for item in select.order_by:
                expr = self._substitute_order_expr(item.expr, select.items)
                if rewriter is not None:
                    expr = rewriter(expr)
                key_exprs.append(expr)
                ascending.append(item.ascending)
            plan = Sort(plan, key_exprs, ascending, self._ctx_factory)

        # projection
        exprs: List[ast.Expr] = []
        names: List[str] = []
        for i, item in enumerate(select.items):
            if isinstance(item.expr, ast.Star):
                if rewriter is not None:
                    raise PlanningError("SELECT * cannot be combined with GROUP BY")
                for col in plan.schema:
                    exprs.append(ast.ColumnRef(col.name, col.qualifier))
                    names.append(col.name)
                continue
            expr = rewriter(item.expr) if rewriter is not None else item.expr
            exprs.append(expr)
            names.append(item.output_name(i + 1))
        plan = Project(plan, exprs, names, self._ctx_factory)

        if select.distinct:
            plan = Distinct(plan)
        if select.limit is not None:
            plan = Limit(plan, select.limit)
        return plan

    # ------------------------------------------------------------------
    # FROM / WHERE
    # ------------------------------------------------------------------
    def _plan_source(
        self, source: Union[ast.TableSource, ast.SubquerySource]
    ) -> PhysicalOperator:
        if isinstance(source, ast.TableSource):
            return SeqScan(self.catalog.get(source.name), source.alias)
        return SubqueryScan(self.plan_query(source.select), source.alias)

    def _plan_from_where(
        self, from_items: Sequence[ast.FromItem], where: Optional[ast.Expr]
    ) -> PhysicalOperator:
        if not from_items:
            plan: PhysicalOperator = ValuesScan([()], Schema([]))
            if where is not None:
                plan = Filter(plan, where, self._ctx_factory)
            return plan

        plans = [self._plan_source(item.source) for item in from_items]
        conjuncts = _split_conjuncts(where) if where is not None else []

        # Push single-source conjuncts down to their scan — except into the
        # right side of a LEFT JOIN, where a pre-join filter would change
        # which rows get null-extended (WHERE applies after the join).
        no_pushdown = {
            i for i, item in enumerate(from_items)
            if item.join_type == "left"
        }
        remaining: List[ast.Expr] = []
        for conj in conjuncts:
            for i, p in enumerate(plans):
                if i in no_pushdown:
                    continue
                if _resolvable(conj, p.schema):
                    routed = self._try_index_route(p, conj)
                    plans[i] = (
                        routed if routed is not None
                        else Filter(p, conj, self._ctx_factory)
                    )
                    break
            else:
                remaining.append(conj)

        pairs = self._order_joins(from_items, plans, remaining)

        current = pairs[0][1]
        for item, right in pairs[1:]:
            if item.join_type == "left":
                # WHERE conjuncts must NOT be folded into an outer join's
                # ON condition — SQL applies WHERE after null-extension.
                on_conjuncts = (
                    _split_conjuncts(item.condition)
                    if item.condition is not None else []
                )
                left_keys, right_keys, residual = _split_equi(
                    on_conjuncts, current.schema, right.schema
                )
                if left_keys:
                    current = HashJoin(
                        current, right, left_keys, right_keys,
                        _and_all(residual), self._ctx_factory, outer=True,
                    )
                else:
                    current = NestedLoopJoin(
                        current, right, item.condition, self._ctx_factory,
                        outer=True,
                    )
                continue
            combined = current.schema.concat(right.schema)
            applicable = [c for c in remaining if _resolvable(c, combined)]
            remaining = [c for c in remaining if c not in applicable]
            if item.condition is not None:
                applicable.extend(_split_conjuncts(item.condition))
            left_keys, right_keys, residual = _split_equi(
                applicable, current.schema, right.schema
            )
            if left_keys:
                current = self._choose_inner_join(
                    current, right, left_keys, right_keys, residual,
                    applicable,
                )
                continue
            sim = self._try_similarity_join(
                applicable, current, right
            )
            if sim is not None:
                current = sim
            else:
                current = NestedLoopJoin(
                    current, right, _and_all(applicable), self._ctx_factory
                )
        if remaining:
            current = Filter(current, _and_all(remaining), self._ctx_factory)
        return current

    # ------------------------------------------------------------------
    # join algorithm choice
    # ------------------------------------------------------------------
    def _choose_inner_join(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: Sequence[ast.Expr],
        right_keys: Sequence[ast.Expr],
        residual: Sequence[ast.Expr],
        all_conjuncts: Sequence[ast.Expr],
    ) -> PhysicalOperator:
        """Hash join vs nested loop, by estimated cost.

        Both candidates are built and run through the estimator; the hash
        join's linear build+probe beats the nested loop's quadratic scan
        for anything but the smallest inputs, so this mostly confirms the
        old always-hash heuristic — but a one-row driving side no longer
        pays for a hash table it doesn't need.
        """
        hash_join = HashJoin(
            left, right, list(left_keys), list(right_keys),
            _and_all(list(residual)), self._ctx_factory,
        )
        nl_join = NestedLoopJoin(
            left, right, _and_all(list(all_conjuncts)), self._ctx_factory
        )
        hash_cost = _estimator.estimate_plan(hash_join).total_cost
        nl_cost = _estimator.estimate_plan(nl_join).total_cost
        return nl_join if nl_cost < hash_cost else hash_join

    # ------------------------------------------------------------------
    # similarity join recognition
    # ------------------------------------------------------------------
    _DIST_FUNCTIONS = {"dist_l2": "l2", "dist_linf": "linf"}

    def _try_similarity_join(
        self,
        conjuncts: Sequence[ast.Expr],
        left: PhysicalOperator,
        right: PhysicalOperator,
    ) -> Optional[PhysicalOperator]:
        """Recognize a ``dist_l2(lx, ly, rx, ry) <= eps`` join conjunct and
        plan an R-tree similarity join.  The conjunct tells the node where
        to look; it stays in the join condition, with the others, and
        decides every pair the index gathers."""
        for conj in conjuncts:
            bound = self._match_distance_predicate(conj, left, right)
            if bound is None:
                continue
            left_coords, right_coords, eps, metric = bound
            return SimilarityJoin(
                left, right, left_coords, right_coords, eps, metric,
                _and_all(conjuncts), self._ctx_factory,
            )
        return None

    def _match_distance_predicate(self, conj, left, right):
        if not isinstance(conj, ast.BinaryOp):
            return None
        func, lit = conj.left, conj.right
        op = conj.op
        if isinstance(func, ast.Literal) and isinstance(lit, ast.FuncCall):
            func, lit = lit, func
            op = _FLIPPED_OP.get(op, op)
        if op != "<=":
            return None
        if not (isinstance(func, ast.FuncCall)
                and func.name in self._DIST_FUNCTIONS
                and len(func.args) == 4
                and isinstance(lit, ast.Literal)
                and isinstance(lit.value, (int, float))
                and not isinstance(lit.value, bool)):
            return None
        first, second = func.args[:2], func.args[2:]
        metric = self._DIST_FUNCTIONS[func.name]
        eps = float(lit.value)
        if (all(_resolvable(e, left.schema) for e in first)
                and all(_resolvable(e, right.schema) for e in second)):
            return list(first), list(second), eps, metric
        if (all(_resolvable(e, right.schema) for e in first)
                and all(_resolvable(e, left.schema) for e in second)):
            return list(second), list(first), eps, metric
        return None

    # ------------------------------------------------------------------
    # join ordering
    # ------------------------------------------------------------------
    def _order_joins(self, from_items, plans, conjuncts):
        """Greedy join ordering for comma-joined sources.

        Explicit ``JOIN … ON`` items pin the user's order (their condition
        is attached positionally), but for a plain comma list the order is
        semantically free — so start from the largest source (it stays the
        probe side) and repeatedly attach the smallest source *connected*
        to the chosen set by an equi-conjunct, falling back to the smallest
        overall.  This avoids accidental cross joins when the FROM order
        is adversarial (e.g. TPC-H Q9 written part-first).
        """
        pairs = list(zip(from_items, plans))
        if len(pairs) <= 2 or any(
            item.join_type is not None for item in from_items
        ):
            return pairs

        equi_conjuncts = [
            c for c in conjuncts
            if isinstance(c, ast.BinaryOp) and c.op == "="
            and _column_refs(c.left) and _column_refs(c.right)
        ]

        def connected(schema: Schema, candidate: PhysicalOperator) -> bool:
            for c in equi_conjuncts:
                combined = schema.concat(candidate.schema)
                if not _resolvable(c, combined):
                    continue
                l, r = _split_equi([c], schema, candidate.schema)[:2]
                if l and r:
                    return True
            return False

        # Statistics-backed cardinalities (selectivity of any pushed-down
        # filters included) replace the old flat leaf-size heuristic.
        est_rows = {
            id(p[1]): _estimator.estimate_plan(p[1]).rows for p in pairs
        }
        remaining_pairs = pairs[:]
        start = max(remaining_pairs, key=lambda p: est_rows[id(p[1])])
        remaining_pairs.remove(start)
        ordered = [start]
        schema = start[1].schema
        while remaining_pairs:
            linked = [
                p for p in remaining_pairs if connected(schema, p[1])
            ]
            pool = linked or remaining_pairs
            best = min(pool, key=lambda p: est_rows[id(p[1])])
            remaining_pairs.remove(best)
            ordered.append(best)
            schema = schema.concat(best[1].schema)
        return ordered

    # ------------------------------------------------------------------
    # index routing
    # ------------------------------------------------------------------
    def _try_index_route(
        self, plan: PhysicalOperator, conj: ast.Expr
    ) -> Optional[PhysicalOperator]:
        """Turn ``SeqScan + (col op const)`` into an IndexScan when a
        secondary index covers the column.  Returns None when the conjunct
        is not index-routable (the caller falls back to a Filter)."""
        if not isinstance(plan, SeqScan):
            return None
        bound = _extract_const_comparison(conj)
        if bound is None:
            return None
        ref, op, low, high = bound
        if ref.qualifier is not None and ref.qualifier != plan.alias:
            return None
        if plan.schema.maybe_resolve(ref.name, ref.qualifier) is None:
            return None
        index = plan.table.index_on(ref.name)
        if index is None:
            return None
        if op == "=":
            return IndexScan(plan.table, index, plan.alias,
                             low=low, high=low)
        if op == "between":
            return IndexScan(plan.table, index, plan.alias,
                             low=low, high=high)
        if op == "<":
            return IndexScan(plan.table, index, plan.alias,
                             high=low, include_high=False)
        if op == "<=":
            return IndexScan(plan.table, index, plan.alias, high=low)
        if op == ">":
            return IndexScan(plan.table, index, plan.alias,
                             low=low, include_low=False)
        if op == ">=":
            return IndexScan(plan.table, index, plan.alias, low=low)
        return None

    # ------------------------------------------------------------------
    # aggregation planning
    # ------------------------------------------------------------------
    def _collect_agg_calls(self, select: ast.Select) -> List[ast.AggCall]:
        calls: List[ast.AggCall] = []
        seen: set = set()

        def collect(expr: ast.Expr) -> None:
            for node in expr.walk():
                if isinstance(node, ast.AggCall):
                    if any(c.contains_aggregate() for c in node.children()):
                        raise PlanningError("aggregates cannot be nested")
                    if node.key() not in seen:
                        seen.add(node.key())
                        calls.append(node)

        for item in select.items:
            if not isinstance(item.expr, ast.Star):
                collect(item.expr)
        if select.having is not None:
            collect(select.having)
        for order in select.order_by:
            collect(order.expr)
        return calls

    def _plan_hash_aggregate(
        self, select: ast.Select, child: PhysicalOperator
    ) -> Tuple[PhysicalOperator, Callable[[ast.Expr], ast.Expr]]:
        keys = select.group_by
        calls = self._collect_agg_calls(select)
        plan = HashAggregate(child, keys, calls, self._ctx_factory)
        key_map = {k.key(): i for i, k in enumerate(keys)}
        agg_map = {c.key(): len(keys) + i for i, c in enumerate(calls)}
        rewriter = _make_post_agg_rewriter(key_map, agg_map, sgb=False)
        return plan, rewriter

    def _plan_sgb_aggregate(
        self, select: ast.Select, child: PhysicalOperator
    ) -> Tuple[PhysicalOperator, Callable[[ast.Expr], ast.Expr]]:
        spec = select.similarity
        assert spec is not None
        if not select.group_by:
            raise PlanningError("similarity GROUP BY needs grouping attributes")
        eps = self._constant_value(spec.eps)
        try:
            eps = float(eps)
        except (TypeError, ValueError):
            raise PlanningError(f"WITHIN must be numeric, got {eps!r}") from None
        calls = self._collect_agg_calls(select)
        if not calls:
            raise PlanningError(
                "similarity GROUP BY queries must select aggregates"
            )
        plan = SGBAggregate(
            child,
            key_exprs=select.group_by,
            mode=spec.mode,
            metric=spec.metric,
            eps=eps,
            on_overlap=spec.on_overlap or "join-any",
            agg_calls=calls,
            ctx_factory=self._ctx_factory,
            config=self.sgb_config,
            partition_exprs=spec.partition_by,
            eps_fraction=_estimator.sgb_eps_fraction(
                child, select.group_by, eps),
        )
        # partition keys are constant within an output group, so the select
        # list may reference them directly (like plain GROUP BY keys)
        key_map = {k.key(): i for i, k in enumerate(spec.partition_by)}
        agg_map = {
            c.key(): len(spec.partition_by) + i
            for i, c in enumerate(calls)
        }
        rewriter = _make_post_agg_rewriter(key_map, agg_map, sgb=True)
        return plan, rewriter

    def _plan_around_nd_aggregate(
        self, select: ast.Select, child: PhysicalOperator
    ) -> Tuple[PhysicalOperator, Callable[[ast.Expr], ast.Expr]]:
        from repro.engine.executor.sgb import SGBAroundAggregate

        spec = select.similarity
        assert isinstance(spec, ast.AroundNDSpec)
        dim = len(select.group_by)
        centers = []
        for center_exprs in spec.centers:
            if len(center_exprs) != dim:
                raise PlanningError(
                    f"AROUND centre has {len(center_exprs)} coordinates, "
                    f"GROUP BY has {dim} attributes"
                )
            centers.append(
                [float(self._constant_value(e)) for e in center_exprs]
            )
        radius = None
        if spec.radius is not None:
            radius = float(self._constant_value(spec.radius))
        calls = self._collect_agg_calls(select)
        if not calls:
            raise PlanningError(
                "similarity GROUP BY queries must select aggregates"
            )
        plan = SGBAroundAggregate(
            child, select.group_by, centers, spec.metric, radius, calls,
            self._ctx_factory,
        )
        agg_map = {c.key(): i for i, c in enumerate(calls)}
        rewriter = _make_post_agg_rewriter({}, agg_map, sgb=True)
        return plan, rewriter

    def _plan_sgb1d_aggregate(
        self, select: ast.Select, child: PhysicalOperator
    ) -> Tuple[PhysicalOperator, Callable[[ast.Expr], ast.Expr]]:
        from repro.engine.executor.sgb import SGB1DAggregate

        spec = select.similarity
        assert isinstance(spec, ast.Similarity1DSpec)
        if len(select.group_by) != 1:
            raise PlanningError(
                "1-D similarity grouping takes exactly one grouping "
                "attribute"
            )
        calls = self._collect_agg_calls(select)
        if not calls:
            raise PlanningError(
                "similarity GROUP BY queries must select aggregates"
            )
        diameter = None
        if spec.diameter is not None:
            diameter = float(self._constant_value(spec.diameter))
        if spec.kind == "segment":
            assert spec.separation is not None
            plan = SGB1DAggregate(
                child, select.group_by[0], "segment", calls,
                self._ctx_factory,
                separation=float(self._constant_value(spec.separation)),
                diameter=diameter,
            )
        else:
            centers = [float(self._constant_value(c)) for c in spec.centers]
            plan = SGB1DAggregate(
                child, select.group_by[0], "around", calls,
                self._ctx_factory, centers=centers, diameter=diameter,
            )
        agg_map = {c.key(): i for i, c in enumerate(calls)}
        rewriter = _make_post_agg_rewriter({}, agg_map, sgb=True)
        return plan, rewriter

    def _constant_value(self, expr: ast.Expr):
        """Evaluate a constant expression (e.g. the WITHIN threshold)."""
        if any(isinstance(n, (ast.ColumnRef, ast.AggCall)) for n in expr.walk()):
            raise PlanningError("WITHIN threshold must be a constant expression")
        fn = expr.bind(ast.BindContext(Schema([]), self._run_subquery))
        return fn(())

    # ------------------------------------------------------------------
    def _substitute_order_expr(
        self, expr: ast.Expr, items: Sequence[ast.SelectItem]
    ) -> ast.Expr:
        # ORDER BY <position>
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            pos = expr.value
            if not 1 <= pos <= len(items):
                raise PlanningError(f"ORDER BY position {pos} out of range")
            target = items[pos - 1].expr
            if isinstance(target, ast.Star):
                raise PlanningError("cannot ORDER BY a * item")
            return target
        # ORDER BY <select alias>
        if isinstance(expr, ast.ColumnRef) and expr.qualifier is None:
            for item in items:
                if item.alias == expr.name and not isinstance(item.expr, ast.Star):
                    return item.expr
        return expr


# ----------------------------------------------------------------------
# expression utilities (shared with the estimator via sql.exprutil)
# ----------------------------------------------------------------------
#: Numeric types compare/merge freely across UNION branches.
_NUMERIC_TYPES = frozenset({"int", "float"})


def _check_union_compatible(first: PhysicalOperator,
                            branch: PhysicalOperator) -> None:
    """Schema compatibility across UNION branches: same arity AND no
    column pair with known, incompatible types (numerics inter-mix; an
    ``ANY`` column — computed expression — is compatible with anything)."""
    if len(first.schema) != len(branch.schema):
        raise PlanningError(
            "UNION branches must have the same number of columns "
            f"({len(first.schema)} vs {len(branch.schema)})"
        )
    for i, (a, b) in enumerate(zip(first.schema, branch.schema)):
        if a.type == ANY or b.type == ANY or a.type == b.type:
            continue
        if a.type in _NUMERIC_TYPES and b.type in _NUMERIC_TYPES:
            continue
        raise PlanningError(
            f"UNION branches have incompatible types in column {i + 1} "
            f"({a.name!r}): {a.type} vs {b.type}"
        )


def _split_equi(
    conjuncts: Sequence[ast.Expr], left: Schema, right: Schema
) -> Tuple[List[ast.Expr], List[ast.Expr], List[ast.Expr]]:
    """Partition join conjuncts into hash keys and residual conditions."""
    left_keys: List[ast.Expr] = []
    right_keys: List[ast.Expr] = []
    residual: List[ast.Expr] = []
    for conj in conjuncts:
        if (
            isinstance(conj, ast.BinaryOp)
            and conj.op == "="
            and _column_refs(conj.left)
            and _column_refs(conj.right)
        ):
            l, r = conj.left, conj.right
            if _resolvable(l, left) and _resolvable(r, right):
                left_keys.append(l)
                right_keys.append(r)
                continue
            if _resolvable(r, left) and _resolvable(l, right):
                left_keys.append(r)
                right_keys.append(l)
                continue
        residual.append(conj)
    return left_keys, right_keys, residual


def _rebuild(expr: ast.Expr, fn: Callable[[ast.Expr], ast.Expr]) -> ast.Expr:
    """Reconstruct ``expr`` with ``fn`` applied to each child subtree."""
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, fn(expr.left), fn(expr.right))
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, fn(expr.operand))
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(fn(expr.operand), expr.negated)
    if isinstance(expr, ast.Between):
        return ast.Between(fn(expr.operand), fn(expr.low), fn(expr.high),
                           expr.negated)
    if isinstance(expr, ast.Like):
        return ast.Like(fn(expr.operand), expr.pattern, expr.negated)
    if isinstance(expr, ast.InList):
        return ast.InList(fn(expr.operand), [fn(i) for i in expr.items],
                          expr.negated)
    if isinstance(expr, ast.InSubquery):
        return ast.InSubquery(fn(expr.operand), expr.subquery, expr.negated,
                              expr.sql)
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(expr.name, [fn(a) for a in expr.args])
    if isinstance(expr, ast.Case):
        return ast.Case(
            [(fn(c), fn(v)) for c, v in expr.whens],
            fn(expr.else_) if expr.else_ is not None else None,
        )
    return expr  # leaves: Literal, ColumnRef, Star, PostAggRef, Interval


def _make_post_agg_rewriter(
    key_map: Dict[tuple, int], agg_map: Dict[tuple, int], sgb: bool
) -> Callable[[ast.Expr], ast.Expr]:
    """Rewrites select/having/order expressions against the aggregate output.

    GROUP BY key expressions become references to the key columns (standard
    aggregation only), aggregate calls become references to their result
    columns, and any leftover bare column is an error — with an SGB-specific
    message, since similarity groups have no representative key value.
    """

    def rewrite(expr: ast.Expr) -> ast.Expr:
        k = expr.key()
        if k in key_map:
            return ast.PostAggRef(key_map[k])
        if isinstance(expr, ast.AggCall):
            try:
                return ast.PostAggRef(agg_map[k])
            except KeyError:  # pragma: no cover - collected beforehand
                raise PlanningError(
                    f"aggregate {expr!r} was not planned"
                ) from None
        if isinstance(expr, ast.ColumnRef):
            if sgb:
                raise PlanningError(
                    f"column {expr.name!r} cannot be selected directly in a "
                    "similarity GROUP BY; wrap it in an aggregate "
                    "(its value varies within a group)"
                )
            raise PlanningError(
                f"column {expr.name!r} must appear in GROUP BY or inside "
                "an aggregate"
            )
        return _rebuild(expr, rewrite)

    return rewrite
