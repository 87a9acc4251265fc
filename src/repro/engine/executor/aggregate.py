"""Hash-based standard GROUP BY (the operator the SGB node extends).

Output rows are ``(key values…, aggregate results…)`` in the internal
schema laid down by the planner; a Project above maps them onto the select
list via :class:`~repro.sql.ast_nodes.PostAggRef` rewrites.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.engine.aggregates import Accumulator, make_accumulator
from repro.engine.executor.base import PhysicalOperator
from repro.engine.schema import Column, Schema
from repro.engine.types import ANY
from repro.sql.ast_nodes import AggCall, BindContext, Expr


class AggSpec:
    """A planned aggregate call with bound argument evaluators."""

    def __init__(self, call: AggCall, arg_fns: Sequence[Callable[[tuple], Any]]):
        self.call = call
        self.arg_fns = list(arg_fns)

    def new_accumulator(self) -> Accumulator:
        return make_accumulator(self.call.name, len(self.arg_fns),
                                self.call.distinct)

    def step(self, acc: Accumulator, row: tuple) -> None:
        acc.step(tuple(f(row) for f in self.arg_fns))

    def fold(self, n: int, columns: Sequence[Sequence[Any]]) -> Any:
        """The aggregate of ``n`` rows given as one column per argument."""
        acc = self.new_accumulator()
        acc.step_many(n, columns)
        return acc.final()


def build_agg_specs(
    calls: Sequence[AggCall], ctx: BindContext
) -> List[AggSpec]:
    specs = []
    for call in calls:
        arg_fns = [a.bind(ctx) for a in call.args]
        # Validate the aggregate name/arity now rather than mid-execution.
        make_accumulator(call.name, len(arg_fns), call.distinct)
        specs.append(AggSpec(call, arg_fns))
    return specs


class HashAggregate(PhysicalOperator):
    """Equality GROUP BY; with no keys, a single group over all input
    (and exactly one output row even for empty input, per SQL)."""

    def __init__(self, child: PhysicalOperator, key_exprs: Sequence[Expr],
                 agg_calls: Sequence[AggCall],
                 ctx_factory: Callable[[Schema], BindContext]):
        self.child = child
        ctx = ctx_factory(child.schema)
        self._key_exprs = list(key_exprs)
        self._key_fns = [e.bind(ctx) for e in key_exprs]
        self._specs = build_agg_specs(agg_calls, ctx)
        self._n_keys = len(key_exprs)
        columns = [Column(f"__key{i}", ANY) for i in range(len(key_exprs))]
        columns += [Column(f"__agg{i}", ANY) for i in range(len(agg_calls))]
        self.schema = Schema(columns)

    def _execute(self) -> Iterator[tuple]:
        groups: Dict[tuple, List[Accumulator]] = {}
        order: List[tuple] = []
        key_fns = self._key_fns
        specs = self._specs
        for row in self.child:
            key = tuple(f(row) for f in key_fns)
            accs = groups.get(key)
            if accs is None:
                accs = [s.new_accumulator() for s in specs]
                groups[key] = accs
                order.append(key)
            for spec, acc in zip(specs, accs):
                spec.step(acc, row)
        if not groups and self._n_keys == 0:
            # SQL scalar aggregate over empty input: one row of finals.
            accs = [s.new_accumulator() for s in specs]
            yield tuple(a.final() for a in accs)
            return
        for key in order:
            yield key + tuple(a.final() for a in groups[key])

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def describe(self) -> str:
        return (
            f"HashAggregate (keys={self._n_keys}, aggs={len(self._specs)})"
        )
