"""Regression tests for SGB009 fixes: buffering operator loops must
observe cancellation mid-loop, via ``PhysicalOperator._checkpoint`` or
the aggregation nodes' chunked column evaluation.

Before the fix, the spool-then-aggregate passes in the SGB operators ran
their whole fold loop before the next iteration-boundary token check —
a cancel fired mid-aggregation burned through the entire partition
first.  The equality GROUP BY node folds through the same base, so it
must stop as soon.
"""

import pytest

from repro.core.cancel import CancelToken
from repro.engine import functions
from repro.engine.database import Database
from repro.engine.executor.base import PhysicalOperator
from repro.errors import QueryCancelledError
from repro.obs import QueryContext


class _Probe(PhysicalOperator):
    def __init__(self, cancel):
        self._ctx = QueryContext(cancel=cancel)

    def _execute(self):
        yield from ()


class _CountingToken:
    def __init__(self):
        self.checks = 0

    def check(self):
        self.checks += 1


class TestCheckpointUnit:
    def test_checks_once_per_stride(self):
        tok = _CountingToken()
        op = _Probe(tok)
        for i in range(4096):
            op._checkpoint(i)
        assert tok.checks == 4096 // PhysicalOperator.CHECKPOINT_EVERY

    def test_zero_index_checks_every_call(self):
        tok = _CountingToken()
        op = _Probe(tok)
        for _ in range(5):
            op._checkpoint(0)
        assert tok.checks == 5

    def test_no_token_is_a_noop(self):
        op = _Probe(None)
        op._checkpoint(0)  # must not raise

    def test_cancelled_token_raises(self):
        tok = CancelToken()
        tok.cancel()
        op = _Probe(tok)
        with pytest.raises(QueryCancelledError):
            op._checkpoint(0)


class TestMidAggregationCancel:
    N_ROWS = 4000

    def calls_before_cancel(self, monkeypatch, sql):
        """Run ``sql`` over ``pts`` with ``cancel_poke`` tripping the token
        on its 50th call; how many calls ran before the typed error."""
        db = Database()
        db.execute("CREATE TABLE pts (x float, y float)")
        db.insert("pts", [(float(i % 23), float(i % 17))
                          for i in range(self.N_ROWS)])

        token = CancelToken()
        calls = {"n": 0}

        def poke(v):
            # Evaluated as an aggregate-argument column in the fold —
            # cancelling here lands mid-aggregation, after the child is
            # drained and no row crosses a node edge until the fold ends.
            calls["n"] += 1
            if calls["n"] == 50:
                token.cancel()
            return float(v)

        monkeypatch.setitem(functions._FUNCTIONS, ("cancel_poke", 1),
                            poke)

        with pytest.raises(QueryCancelledError):
            db.execute(sql, cancel=token)
        return calls["n"]

    def test_cancel_during_fold_aborts_before_loop_ends(self, monkeypatch):
        calls = self.calls_before_cancel(
            monkeypatch,
            "SELECT sum(cancel_poke(x)) FROM pts "
            "GROUP BY x, y DISTANCE-TO-ANY LINF WITHIN 100")
        # The next chunk's token check observed the cancel; without it
        # the fold would grind through all rows before the token is seen.
        assert calls < self.N_ROWS

    @pytest.mark.parametrize("group_by", ["GROUP BY y", ""],
                             ids=["keyed", "scalar"])
    def test_cancel_during_plain_group_by_fold(self, monkeypatch, group_by):
        calls = self.calls_before_cancel(
            monkeypatch, f"SELECT sum(cancel_poke(x)) FROM pts {group_by}")
        assert 50 <= calls <= 50 + PhysicalOperator.CHECKPOINT_EVERY
