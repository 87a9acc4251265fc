"""Regression tests for SGB009 fixes: buffering operator loops must
observe cancellation mid-loop via ``PhysicalOperator._checkpoint``.

Before the fix, the spool-then-aggregate passes in the SGB operators ran
their whole fold loop before the next iteration-boundary token check —
a cancel fired mid-aggregation burned through the entire partition
first.
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
    def test_cancel_during_fold_aborts_before_loop_ends(self, monkeypatch):
        db = Database()
        db.execute("CREATE TABLE pts (x float, y float)")
        n_rows = 4000
        db.insert("pts", [(float(i % 23), float(i % 17))
                          for i in range(n_rows)])

        token = CancelToken()
        calls = {"n": 0}

        def poke(v):
            # Evaluated by spec.step inside the fold loop — cancelling
            # here lands mid-aggregation, after spooling completed.
            calls["n"] += 1
            if calls["n"] == 50:
                token.cancel()
            return float(v)

        monkeypatch.setitem(functions._FUNCTIONS, ("cancel_poke", 1),
                            poke)

        with pytest.raises(QueryCancelledError):
            db.execute(
                "SELECT sum(cancel_poke(x)) FROM pts "
                "GROUP BY x, y DISTANCE-TO-ANY LINF WITHIN 100",
                cancel=token,
            )
        # The next _checkpoint stride observed the cancel; without it the
        # fold would grind through all rows before the token is seen.
        assert calls["n"] < n_rows
