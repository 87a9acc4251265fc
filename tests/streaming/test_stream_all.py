"""Unit tests for the incremental SGB-All stream (``sgb_stream("all")``)."""

import random

import pytest
from hypothesis import given, settings

from repro import kernels
from repro.core.api import sgb_all, sgb_stream
from repro.core.parallel import group_partition
from repro.core.sgb_all import INCREMENTAL_STRATEGIES, SGBAllOperator
from repro.errors import InvalidParameterError, StreamStateError
from repro.obs.metrics import SGB_COUNTER_FIELDS, MetricBag
from tests.conftest import decimal_lattices


def random_points(n, seed=11, span=10.0):
    rng = random.Random(seed)
    return [(rng.uniform(0, span), rng.uniform(0, span)) for _ in range(n)]


CLAUSES = ["join-any", "eliminate", "form-new-group"]
STRATEGIES = INCREMENTAL_STRATEGIES


class TestSnapshotEqualsBatchPrefix:
    """The engine's core invariant: a snapshot after any prefix equals the
    batch operator run over that prefix (same order, same seed)."""

    @pytest.mark.parametrize("clause", CLAUSES)
    def test_snapshot_matches_batch_at_checkpoints(self, clause):
        pts = random_points(120)
        eng = sgb_stream("all", eps=0.9, on_overlap=clause, seed=5,
                         batch_size=1)
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
        """Snapshotting mid-stream (FORM-NEW-GROUP regroups the deferred
        set there) must leave the live state identical to an unsnapshotted
        run."""
        pts = random_points(80, seed=23)
        plain = sgb_stream("all", eps=0.9, on_overlap=clause, seed=1,
                           batch_size=1)
        probed = sgb_stream("all", eps=0.9, on_overlap=clause, seed=1,
                            batch_size=1)
        for i, p in enumerate(pts):
            plain.insert(p)
            probed.insert(p)
            if i % 17 == 0:
                probed.snapshot()
        assert probed.result() == plain.result()

    @pytest.mark.parametrize("tiebreak", ["first", "random"])
    def test_join_any_tiebreaks(self, tiebreak):
        pts = random_points(100, seed=4)
        eng = sgb_stream("all", eps=0.8, tiebreak=tiebreak, seed=9,
                         batch_size=1)
        eng.extend(pts)
        batch = sgb_all(pts, 0.8, tiebreak=tiebreak, seed=9)
        assert eng.snapshot().partition() == batch.partition()

    @pytest.mark.parametrize("metric", ["l2", "linf"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_strategies_and_metrics(self, strategy, metric):
        pts = random_points(90, seed=8)
        eng = sgb_stream("all", eps=0.8, metric=metric, strategy=strategy,
                         tiebreak="first", batch_size=1)
        eng.extend(pts)
        batch = sgb_all(pts, 0.8, metric=metric, strategy=strategy,
                        tiebreak="first")
        assert eng.snapshot().partition() == batch.partition()

    def test_result_equals_batch_finalize(self):
        pts = random_points(100, seed=2)
        eng = sgb_stream("all", eps=0.9, on_overlap="form-new-group",
                         batch_size=1)
        eng.extend(pts)
        batch = sgb_all(pts, 0.9, on_overlap="form-new-group")
        assert eng.result() == batch


class TestLifecycleAndStats:
    def test_result_closes_the_stream(self):
        eng = sgb_stream("all", eps=1.0, batch_size=1)
        eng.extend([(0, 0), (0.5, 0)])
        eng.result()
        with pytest.raises(StreamStateError):
            eng.insert((1, 1))
        with pytest.raises(StreamStateError):
            eng.result()

    def test_counters(self):
        eng = sgb_stream("all", eps=1.0, tiebreak="first", batch_size=1)
        eng.extend([(0, 0), (0.5, 0), (9, 9)])
        st = eng.stats
        assert st.points == 3
        assert st.index_probes == 3
        assert st.groups_created == 2
        assert eng.engine.n_groups == 2

    def test_eliminate_counters(self):
        # (1, 0) qualifies for both singleton cliques -> eliminated.
        eng = sgb_stream("all", eps=1.0, on_overlap="eliminate",
                         metric="linf", batch_size=1)
        eng.extend([(0, 0), (2, 0), (1, 0)])
        assert eng.stats.eliminated == 1
        snap = eng.snapshot()
        assert snap.n_eliminated == 1
        assert snap.n_groups == 2
        batch = sgb_all([(0, 0), (2, 0), (1, 0)], 1.0,
                        on_overlap="eliminate", metric="linf")
        assert snap == batch

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("clause", CLAUSES)
    def test_counters_equal_the_batch_operators_bag(self, clause, strategy):
        """One place counts.  At every prefix the stream's nine counters
        are those of a batch operator fed that prefix, and after
        ``result()`` they are the ``stats`` the batch run finalizes with —
        FORM-NEW-GROUP's regroup passes included, which the stream used
        not to see (``index_probes`` 1500 vs 1609 on brightkite(1500))."""
        pts = random_points(300, seed=3, span=5.0)
        eng = sgb_stream("all", eps=0.3, on_overlap=clause, strategy=strategy,
                         seed=2, batch_size=1)
        op = SGBAllOperator(eps=0.3, on_overlap=clause, strategy=strategy,
                            seed=2)
        for i, p in enumerate(pts):
            eng.insert(p)
            op.add(p)
            if i in (0, 149, 299):
                eng.snapshot()  # a snapshot's regroup is not counted
                assert eng.stats == op.stats, i
        assert eng.stats.candidates > 0
        assert eng.result() == op.finalize()
        for counter in SGB_COUNTER_FIELDS:
            assert getattr(eng.stats, counter) == \
                getattr(op.stats, counter), counter
        if clause == "form-new-group":
            assert eng.stats.index_probes > eng.stats.points

    @pytest.mark.parametrize("clause", CLAUSES)
    def test_same_work_with_a_bag_or_without(self, clause):
        """Always-on counting cannot drift from EXPLAIN ANALYZE's totals:
        the bag a plan node hands :func:`group_partition` only receives
        the counts, so it holds the moved fields of the ``stats`` a bare
        operator finalizes with, ``distance_computations`` included."""
        pts = random_points(300, seed=3, span=5.0)
        kwargs = dict(eps=0.3, on_overlap=clause, seed=2)
        bare = SGBAllOperator(**kwargs)
        labels = bare.add_many(pts).finalize().labels
        bag = MetricBag()
        assert group_partition(0, "all", pts, kwargs, bag) == labels
        assert bag.counters == bare.stats.nonzero()
        assert bare.stats.distance_computations > 0
        assert bare.stats.points == 300

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(InvalidParameterError):
            sgb_stream("all", eps=0, batch_size=1)

    def test_rejects_the_batch_only_graph_strategy(self):
        named = "all-pairs, bounds-checking, index"
        with pytest.raises(InvalidParameterError, match=named):
            sgb_stream("all", eps=1.0, strategy="graph", batch_size=1)
        with pytest.raises(InvalidParameterError, match=named):
            sgb_stream("all", eps=1.0, strategy=" Graph ")

    def test_empty_snapshot(self):
        eng = sgb_stream("all", eps=1.0, batch_size=1)
        snap = eng.snapshot()
        assert snap.n_points == 0 and snap.n_groups == 0


@pytest.mark.parametrize("backend", kernels.available_backends())
class TestOperatorSnapshot:
    """``SGBAllOperator.snapshot()`` is the batch answer for the prefix and
    leaves no trace on the operator."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("clause", CLAUSES)
    def test_snapshots_leave_no_trace(self, backend, clause, strategy):
        """Three snapshots in a row: ``stats``, ``n_groups``, ``n_deferred``
        and the next 50 inserts' outcome are those of a twin stream that
        never snapshotted."""
        pts = random_points(250, seed=6, span=5.0)
        with kernels.use_backend(backend):
            twin, probed = (
                sgb_stream("all", eps=0.3, on_overlap=clause, seed=4,
                           strategy=strategy, batch_size=1)
                for _ in range(2))
            twin.extend(pts[:200])
            probed.extend(pts[:200])
            snaps = [probed.snapshot() for _ in range(3)]
            assert snaps[0] == snaps[1] == snaps[2]
            assert probed.stats == twin.stats
            assert (probed.engine.n_groups, probed.engine.n_deferred) \
                == (twin.engine.n_groups, twin.engine.n_deferred)
            twin.extend(pts[200:])
            probed.extend(pts[200:])
            assert probed.stats == twin.stats
            assert probed.snapshot() == twin.snapshot()
            assert probed.result() == twin.result()
            assert probed.stats == twin.stats

    @pytest.mark.parametrize("clause", CLAUSES)
    @settings(max_examples=15, deadline=None)
    @given(case=decimal_lattices(max_points=30))
    def test_snapshot_equals_batch_at_every_prefix(self, backend, clause,
                                                   case):
        points, eps = case
        with kernels.use_backend(backend):
            op = SGBAllOperator(eps, on_overlap=clause, seed=3)
            for n, point in enumerate(points, 1):
                op.add(point)
                assert op.snapshot() == sgb_all(
                    points[:n], eps, on_overlap=clause, seed=3), n
            assert op.finalize() == sgb_all(points, eps, on_overlap=clause,
                                            seed=3)
