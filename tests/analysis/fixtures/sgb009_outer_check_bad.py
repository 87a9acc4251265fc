# sgblint: module=repro.engine.executor.fixture_cancel_outer_check_bad
"""SGB009 true positives: per-row-work loops over held rows whose only
check sits outside them — once per outer row in an enclosing loop, or in
a sibling loop.  Neither bounds the unchecked loop's own trip count."""


class CancelToken:
    def check(self):
        return None


class QueryContext:
    cancel: CancelToken

    def __init__(self, cancel=None):
        self.cancel = cancel

    def check(self):
        if self.cancel is not None:
            self.cancel.check()


class PhysicalOperator:
    CHECKPOINT_EVERY = 1024

    _ctx: QueryContext

    def __init__(self, child=None):
        self._ctx = QueryContext()
        self.child = child

    def _checkpoint(self, i):
        if i % self.CHECKPOINT_EVERY == 0:
            self._ctx.check()


class PairwiseAggregate(PhysicalOperator):
    def _execute(self):
        rows = list(self.child)
        total = 0
        for i, r in enumerate(rows):
            self._checkpoint(i)  # every 1024th outer row only
            for s in rows:  # per-row work, no check of its own: flagged
                total = total + self._pair(r, s)
        yield total

    def _pair(self, r, s):
        return r * s


class SiblingAggregate(PhysicalOperator):
    def _execute(self):
        rows = list(self.child)
        total = 0
        for r in rows:
            for j, s in enumerate(rows):
                self._checkpoint(j)
            for s in rows:  # a sibling's check covers nothing: flagged
                total = total + self._pair(r, s)
        yield total

    def _pair(self, r, s):
        return r - s
