# sgblint: module=repro.engine.executor.fixture_cancel_leaf_bad
"""SGB009 true positive: a leaf scan that hands out its table's rows with
no cancel check.  Nothing checks at node edges, so every row of the plan
above it runs unchecked."""


class PhysicalOperator:
    def __init__(self):
        self._ctx = None


class TableScan(PhysicalOperator):
    def __init__(self, table):
        super().__init__()
        self.table = table

    def _execute(self):
        return iter(self.table.rows)  # rows enter unchecked: flagged
