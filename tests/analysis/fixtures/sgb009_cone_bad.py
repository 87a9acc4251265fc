# sgblint: module=repro.engine.executor.fixture_cancel_cone_bad
"""SGB009 true positives the narrower rule missed: a helper inherited
from a base class, and a loop over a local that aliases a ``self``
attribute."""


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
    _ctx: QueryContext

    def __init__(self, child=None):
        self._ctx = QueryContext()
        self.child = child


class ColumnBase(PhysicalOperator):
    def _column(self, fn, rows):
        column = []
        for row in rows:  # inherited helper, no checkpoint: flagged
            column.append(fn(row))
        return column


class KeyedAggregate(ColumnBase):
    def __init__(self, child, key_fn):
        super().__init__(child)
        self._key_fn = key_fn
        self._spool = []

    def _execute(self):
        self._spool = list(self.child)
        keys = self._column(self._key_fn, self._spool)
        rows = self._spool
        for row in rows:  # aliases a self attribute, spooled data: flagged
            keys.append(self._key_fn(row))
        yield len(keys)
