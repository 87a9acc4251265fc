"""Unit tests for the incremental SGB-All engine."""

import random

import pytest

from repro.core.api import sgb_all
from repro.core.sgb_all import SGBAllOperator
from repro.errors import InvalidParameterError, StreamStateError
from repro.obs.metrics import MetricBag
from repro.streaming import StreamingSGBAll


def random_points(n, seed=11, span=10.0):
    rng = random.Random(seed)
    return [(rng.uniform(0, span), rng.uniform(0, span)) for _ in range(n)]


CLAUSES = ["join-any", "eliminate", "form-new-group"]


class TestSnapshotEqualsBatchPrefix:
    """The engine's core invariant: a snapshot after any prefix equals the
    batch operator run over that prefix (same order, same seed)."""

    @pytest.mark.parametrize("clause", CLAUSES)
    def test_snapshot_matches_batch_at_checkpoints(self, clause):
        pts = random_points(120)
        eng = StreamingSGBAll(eps=0.9, on_overlap=clause, seed=5)
        for i, p in enumerate(pts):
            eng.insert(p)
            if i in (0, 13, 59, 119):
                prefix = pts[: i + 1]
                batch = sgb_all(prefix, 0.9, on_overlap=clause, seed=5)
                snap = eng.snapshot()
                assert snap.partition() == batch.partition(), (clause, i)
                assert snap.eliminated_indices() == batch.eliminated_indices()

    @pytest.mark.parametrize("clause", CLAUSES)
    def test_snapshot_does_not_disturb_the_stream(self, clause):
        """Snapshotting mid-stream (deepcopy path for FORM-NEW-GROUP) must
        leave the live state byte-identical to an unsnapshotted run."""
        pts = random_points(80, seed=23)
        plain = StreamingSGBAll(eps=0.9, on_overlap=clause, seed=1)
        probed = StreamingSGBAll(eps=0.9, on_overlap=clause, seed=1)
        for i, p in enumerate(pts):
            plain.insert(p)
            probed.insert(p)
            if i % 17 == 0:
                probed.snapshot()
        assert probed.result() == plain.result()

    @pytest.mark.parametrize("tiebreak", ["first", "random"])
    def test_join_any_tiebreaks(self, tiebreak):
        pts = random_points(100, seed=4)
        eng = StreamingSGBAll(eps=0.8, tiebreak=tiebreak, seed=9)
        eng.extend(pts)
        batch = sgb_all(pts, 0.8, tiebreak=tiebreak, seed=9)
        assert eng.snapshot().partition() == batch.partition()

    @pytest.mark.parametrize("metric", ["l2", "linf"])
    @pytest.mark.parametrize("strategy", ["all-pairs", "bounds-checking",
                                          "index"])
    def test_strategies_and_metrics(self, strategy, metric):
        pts = random_points(90, seed=8)
        eng = StreamingSGBAll(eps=0.8, metric=metric, strategy=strategy,
                              tiebreak="first")
        eng.extend(pts)
        batch = sgb_all(pts, 0.8, metric=metric, strategy=strategy,
                        tiebreak="first")
        assert eng.snapshot().partition() == batch.partition()

    def test_result_equals_batch_finalize(self):
        pts = random_points(100, seed=2)
        eng = StreamingSGBAll(eps=0.9, on_overlap="form-new-group")
        eng.extend(pts)
        batch = sgb_all(pts, 0.9, on_overlap="form-new-group")
        assert eng.result() == batch


class TestLifecycleAndStats:
    def test_result_closes_the_stream(self):
        eng = StreamingSGBAll(eps=1.0)
        eng.extend([(0, 0), (0.5, 0)])
        eng.result()
        with pytest.raises(StreamStateError):
            eng.insert((1, 1))
        with pytest.raises(StreamStateError):
            eng.result()

    def test_counters(self):
        eng = StreamingSGBAll(eps=1.0, tiebreak="first")
        eng.extend([(0, 0), (0.5, 0), (9, 9)])
        st = eng.stats
        assert st.points == 3
        assert st.index_probes == 3
        assert st.groups_created == 2
        assert eng.n_groups == 2

    def test_eliminate_counters(self):
        # (1, 0) qualifies for both singleton cliques -> eliminated.
        eng = StreamingSGBAll(eps=1.0, on_overlap="eliminate",
                              metric="linf")
        eng.extend([(0, 0), (2, 0), (1, 0)])
        assert eng.stats.eliminated == 1
        snap = eng.snapshot()
        assert snap.n_eliminated == 1
        assert snap.n_groups == 2
        batch = sgb_all([(0, 0), (2, 0), (1, 0)], 1.0,
                        on_overlap="eliminate", metric="linf")
        assert snap == batch

    @pytest.mark.parametrize("strategy", ["all-pairs", "bounds-checking",
                                          "index"])
    @pytest.mark.parametrize("clause", CLAUSES)
    def test_counters_equal_the_batch_operators_bag(self, clause, strategy):
        """Streaming SGB-All used to report ``candidates`` = 0 for every
        strategy and clause.  After any prefix the stream's counters are
        the batch operator's ``MetricBag`` over that prefix: same probes,
        same entries examined, same clause bookkeeping."""
        pts = random_points(300, seed=3, span=5.0)
        eng = StreamingSGBAll(eps=0.3, on_overlap=clause, strategy=strategy,
                              seed=2)
        bag = MetricBag()
        op = SGBAllOperator(eps=0.3, on_overlap=clause, strategy=strategy,
                            seed=2, metrics=bag)
        for i, p in enumerate(pts):
            eng.insert(p)
            op.add(p)
            if i in (0, 149, 299):
                for counter in ("points", "index_probes", "candidates",
                                "groups_created", "eliminated", "deferred"):
                    assert getattr(eng.stats, counter) == bag.get(counter), \
                        (counter, i)
        assert eng.stats.candidates > 0

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(InvalidParameterError):
            StreamingSGBAll(eps=0)

    def test_empty_snapshot(self):
        eng = StreamingSGBAll(eps=1.0)
        snap = eng.snapshot()
        assert snap.n_points == 0 and snap.n_groups == 0
