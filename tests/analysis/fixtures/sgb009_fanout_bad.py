# sgblint: module=repro.engine.executor.fixture_cancel_fanout_bad
"""SGB009 true positive: a hash-join probe whose inner loop multiplies
rows from the hash table it holds with no cancel check.  Yielding checks
nothing, and the outer loop draws from a child, so one skewed bucket
runs to its end past a cancel."""


class PhysicalOperator:
    def __init__(self, left=None, right=None):
        self._ctx = None
        self.left = left
        self.right = right


class ProbeJoin(PhysicalOperator):
    def _execute(self):
        table = {}
        for rrow in self.right:  # exempt: draws from a child
            table.setdefault(rrow[0], []).append(rrow)
        for lrow in self.left:  # exempt: draws from a child
            for rrow in table.get(lrow[0], ()):  # unchecked fan-out: flagged
                yield lrow + rrow
