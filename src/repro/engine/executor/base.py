"""Volcano-style physical operators.

Every operator exposes an output :class:`~repro.engine.schema.Schema` and an
iterator of row tuples.  Plans are trees of operators; ``explain()`` renders
the tree for tests and debugging.

Subclasses implement :meth:`_execute`; iteration always goes through the
base ``__iter__``, which hands the raw iterator straight through when the
node's :class:`~repro.obs.explain.QueryContext` has nothing to check or
record (the unbound default — one attribute check per pass per node) and
through the context's recorder otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from repro.engine.schema import Schema
from repro.obs.explain import UNBOUND, QueryContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.cancel import CancelToken
    from repro.stats.model import PlanEstimate


class PhysicalOperator:
    """Base class; subclasses set ``self.schema`` and implement ``_execute``."""

    schema: Schema

    #: The one instrumentation slot: the statement's
    #: :class:`~repro.obs.explain.QueryContext` (cancel token, tracer,
    #: per-node accounting), set on every node by ``QueryContext.bind``.
    #: Unbound, execution is completely untouched.
    _ctx: QueryContext = UNBOUND

    #: Cost-model slot filled by :func:`repro.stats.estimator.estimate_plan`
    #: (the planner runs it on every planned query): estimated output
    #: cardinality and startup/total cost.  None for hand-built plans that
    #: were never estimated.
    _estimate: "Optional[PlanEstimate]" = None

    #: Stride for :meth:`_checkpoint` — coarse enough that the modulo is
    #: noise next to per-row work, fine enough that a cancelled query
    #: stops within a few thousand rows.
    CHECKPOINT_EVERY = 1024

    def _execute(self) -> Iterator[tuple]:
        raise NotImplementedError

    def _checkpoint(self, i: int) -> None:
        """Cancel checkpoint for buffering loops inside ``_execute``.

        The context's per-row check only fires when a row crosses a
        node edge; loops that spool-then-aggregate run thousands of
        steps without yielding, so they call ``self._checkpoint(i)`` with
        their loop index to re-check the token every
        :attr:`CHECKPOINT_EVERY` iterations (a no-op without a token).
        """
        if i % self.CHECKPOINT_EVERY == 0:
            self._ctx.check()

    def __iter__(self) -> Iterator[tuple]:
        ctx = self._ctx
        if not ctx.wraps:
            return iter(self._execute())
        return ctx.record(self, self._execute())

    def rows(self) -> List[tuple]:
        """Materialize the full output."""
        return list(self)

    # -- explain -----------------------------------------------------------
    def describe(self) -> str:
        """One-line operator description (overridden by subclasses)."""
        return type(self).__name__

    def children(self) -> Tuple["PhysicalOperator", ...]:
        return ()

    def explain(self, indent: int = 0) -> str:
        line = "  " * indent + "-> " + self.describe()
        if self._estimate is not None:
            line += f"  ({self._estimate.render()})"
        lines = [line]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)


def attach_cancel(plan: PhysicalOperator,
                  token: "Optional[CancelToken]") -> None:
    """Bind a context carrying just this token to a whole plan.

    Kept only because ``benchmarks/e2e/layers.py`` (frozen by
    BENCHMARK.json) calls it before ``plan.rows()``; everything else
    builds the :class:`~repro.obs.explain.QueryContext` itself.
    """
    QueryContext(cancel=token).bind(plan)
