# sgblint: module=repro.engine.executor.fixture_cancel_good
"""SGB009 true negatives: checkpointed (also in an inherited helper),
child-drawing and shape-bounded loops, and rows handed out through the
checked-chunk helper."""


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

    def _stride(self, stride, mark):
        self._ctx.check()
        return min(2 * stride, self.CHECKPOINT_EVERY), mark

    def _checked(self, rows):
        it = iter(rows)
        while True:
            self._ctx.check()
            chunk = [row for _, row in zip(range(64), it)]
            if not chunk:
                return
            yield from chunk


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
        for row in self.child:  # exempt: iterates a child operator
            yield row + 1


class CheckedScan(PhysicalOperator):
    def __init__(self, table):
        super().__init__()
        self.table = table

    def _execute(self):
        return self._checked(self.table.rows)  # checks before each chunk


class CountingProbeJoin(PhysicalOperator):
    def __init__(self, left, right):
        super().__init__()
        self.left = left
        self.right = right

    def _execute(self):
        table = {}
        for rrow in self.right:
            table.setdefault(rrow[0], []).append(rrow)
        todo = every = 1
        mark = 0.0
        for lrow in self.left:
            for rrow in table.get(lrow[0], ()):
                todo -= 1
                if not todo:  # in-line count, a check per stride
                    every, mark = self._stride(every, mark)
                    todo = every
                yield lrow + rrow

