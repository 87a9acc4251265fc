"""Volcano-style physical operators.

Every operator exposes an output :class:`~repro.engine.schema.Schema` and an
iterator of row tuples.  Plans are trees of operators; ``explain()`` renders
the tree for tests and debugging.

Subclasses implement :meth:`_execute`; iteration always goes through the
base ``__iter__``, which hands the raw iterator straight through unless
the node's :class:`~repro.obs.explain.QueryContext` collects per-node
accounting, and through the context's recorder then.

Cancellation is checked where rows enter the plan and where they
multiply, as PostgreSQL checks for interrupts inside scan and build
loops rather than between nodes: a leaf scan (and every node that emits
rows it holds) hands them out through :meth:`PhysicalOperator._checked`,
and the join probe loops count candidates in line and check at the end
of each stride (:meth:`PhysicalOperator._stride`).  A row that crosses a
node edge costs no Python call.
"""

from __future__ import annotations

import time
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Tuple, TypeVar

from repro.engine.schema import Schema
from repro.obs.explain import UNBOUND, QueryContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.cancel import CancelToken
    from repro.stats.model import PlanEstimate

T = TypeVar("T")


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

    #: The cancel stride: the most rows :meth:`_checked` hands out, and
    #: the most candidates a join probe tries, between two token checks.
    #: Coarse enough that the check is noise next to per-row work, fine
    #: enough that a cancelled query stops within a few thousand rows.
    CHECKPOINT_EVERY = 1024

    #: A stride doubles while it takes less than this, rows above it
    #: included, and halves when it takes longer, so a slow per-row
    #: expression is checked about this often.
    CHUNK_BUDGET_S = 0.002

    def _execute(self) -> Iterator[tuple]:
        raise NotImplementedError

    def _checkpoint(self, i: int) -> None:
        """Cancel checkpoint for a loop inside ``_execute`` that is not
        a pass over rows (``Sort``'s key passes): re-checks the token
        when ``i`` is a multiple of :attr:`CHECKPOINT_EVERY` (a no-op
        without a token)."""
        if i % self.CHECKPOINT_EVERY == 0:
            self._ctx.check()

    def _stride(self, stride: int, mark: float) -> Tuple[int, float]:
        """Check the token at the end of a stride that began at ``mark``;
        return the next stride and its start.

        The next stride is twice ``stride``, up to
        :attr:`CHECKPOINT_EVERY`, if this one took less than
        :attr:`CHUNK_BUDGET_S`, and half of it, down to one, otherwise.
        :meth:`_checked` and the join probe loops call it once per
        stride, never per row.
        """
        self._ctx.check()
        now = time.perf_counter()
        if now - mark < self.CHUNK_BUDGET_S:
            return min(2 * stride, self.CHECKPOINT_EVERY), now
        return max(stride // 2, 1), now

    def _checked(self, rows: Iterable[T]) -> Iterator[T]:
        """``rows`` with the cancel token checked before each chunk.

        The one way rows enter the plan: leaf scans and nodes that emit
        rows they hold return their rows through it, and the
        aggregation nodes evaluate columns over its chunks
        (:meth:`_chunks`).  Chunk lengths
        follow :meth:`_stride` from one row: a cancel is seen within one
        chunk, at most a stride of rows, never more rows than had passed
        before it fired, and about one budget's time or one slow row's
        (``sleep(s)``).  Inside a chunk each row costs C only.  Without
        a token the rows come back as they are.
        """
        if self._ctx.cancel is None:
            return iter(rows)
        return chain.from_iterable(self._chunks(iter(rows)))

    def _chunks(self, it: Iterator[T]) -> Iterator[List[T]]:
        self._ctx.check()
        stride, mark = 1, time.perf_counter()
        while True:
            chunk = list(islice(it, stride))
            if not chunk:
                return
            yield chunk  # resumed once the consumer has taken every row
            stride, mark = self._stride(stride, mark)

    def __iter__(self) -> Iterator[tuple]:
        """``_execute``'s own iterator, or the context's recorder around
        it when the context collects.  No cancel check sits here."""
        ctx = self._ctx
        if not ctx.collect:
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
