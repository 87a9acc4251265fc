# sgblint: module=repro.engine.executor.fixture_cancel_good
"""SGB009 true negatives: checkpointed (also in an inherited helper),
yielding, and shape-bounded loops."""


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


class CheckpointedAggregate(PhysicalOperator):
    def __init__(self, child, specs):
        super().__init__(child)
        self._specs = specs

    def _execute(self):
        spool = []
        for row in self.child:  # exempt: the child iterator checks
            spool.append(row)
        acc = 0
        for i, row in enumerate(spool):
            if i % 256 == 0:
                self._ctx.cancel.check()  # direct cancel check
            acc = acc + row
        total = 0
        for j, row in enumerate(spool):
            self._checkpoint(j)  # indirect: reaches CancelToken.check
            total = total + self._fold(row)
        for spec in self._specs:  # shape-bounded: one per aggregate
            total = total + self._fold(spec)
        yield total + acc

    def _fold(self, value):
        return value * 2


class ColumnBase(PhysicalOperator):
    """A base whose helper the subclass's ``_execute`` calls."""

    def _column(self, rows):
        out = []
        for i, row in enumerate(rows):
            self._checkpoint(i)  # inherited helper, checkpointed
            out.append(row * 2)
        return out


class InheritingAggregate(ColumnBase):
    def _execute(self):
        rows = list(self.child)
        yield sum(self._column(rows))


class StreamingProject(PhysicalOperator):
    def _execute(self):
        for row in self.child:  # yields per row: __iter__ checks
            yield row + 1
