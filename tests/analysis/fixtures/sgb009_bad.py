# sgblint: module=repro.engine.executor.fixture_cancel_bad
"""SGB009 true positives: buffering loops with no cancel checkpoint."""


class PhysicalOperator:
    def __init__(self, child=None):
        self._ctx = None
        self.child = child


class SpoolAggregate(PhysicalOperator):
    def __init__(self, child, specs):
        super().__init__(child)
        self._specs = specs

    def _execute(self):
        spool = []
        for row in self.child:  # exempt: the child iterator checks
            spool.append(row)
        acc = 0
        for row in spool:  # per-row work, no checkpoint: flagged
            acc = self._step(acc, row)
        yield self._finalize(spool, acc)

    def _step(self, acc, row):
        return acc + row

    def _finalize(self, spool, acc):
        out = [acc]
        for row in spool:  # helper on the hot path: also flagged
            out.append(self._step(0, row))
        return out
