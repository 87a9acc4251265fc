"""End-to-end agreement: numpy vs python backends, and partitioned runs.

The contract (docs/architecture.md, "Execution backends"):

* both kernel backends produce identical memberships — bit-identical
  labels, not merely equal partitions, because candidate lists are
  id-ordered under both so even random JOIN-ANY tiebreaks replay;
* a partitioned array-API call groups each partition on its own, as
  the same call on that partition's points would.
"""

import random

import pytest

from repro import kernels
from repro.core.api import sgb_all, sgb_any
from repro.core.parallel import partition_seed
from repro.errors import InvalidParameterError
from repro.stats.chooser import ALL_STRATEGIES, ANY_STRATEGIES

HAS_NUMPY = "numpy" in kernels.available_backends()
needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")


def _points(n, seed=0, span=10.0):
    rng = random.Random(seed)
    return [(rng.uniform(0, span), rng.uniform(0, span)) for _ in range(n)]


def _clusters(n_clusters=40, size=30, seed=5):
    """``size`` points around each of ``n_clusters`` centres, shuffled:
    at ε 0.5 most clusters are one clique, and neighbouring ones overlap."""
    rng = random.Random(seed)
    points = []
    for _ in range(n_clusters):
        cx, cy = rng.uniform(0, 20), rng.uniform(0, 20)
        points += [(rng.gauss(cx, 0.1), rng.gauss(cy, 0.1))
                   for _ in range(size)]
    rng.shuffle(points)
    return points


@needs_numpy
class TestBackendAgreement:
    N = 500
    EPS = 0.7

    def _labels(self, backend, fn, **kwargs):
        with kernels.use_backend(backend):
            return fn(_points(self.N, seed=13), self.EPS, **kwargs).labels

    @pytest.mark.parametrize("strategy", ANY_STRATEGIES)
    def test_sgb_any_labels_identical(self, strategy):
        kwargs = dict(strategy=strategy)
        assert self._labels("numpy", sgb_any, **kwargs) == \
            self._labels("python", sgb_any, **kwargs)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("on_overlap",
                             ["join-any", "eliminate", "form-new-group"])
    def test_sgb_all_labels_identical(self, strategy, on_overlap):
        kwargs = dict(strategy=strategy, on_overlap=on_overlap,
                      tiebreak="random", seed=3)
        assert self._labels("numpy", sgb_all, **kwargs) == \
            self._labels("python", sgb_all, **kwargs)

    @pytest.mark.parametrize("metric", ["l2", "linf", "l1"])
    def test_metrics_agree(self, metric):
        kwargs = dict(strategy="grid", metric=metric)
        assert self._labels("numpy", sgb_any, **kwargs) == \
            self._labels("python", sgb_any, **kwargs)

    def test_sgb_any_structural_counters_identical(self):
        # SGB-Any has no inter-pair early exit, so even the
        # distance_computations counter agrees exactly across backends.
        from repro.core.sgb_any import SGBAnyOperator

        counters = {}
        for backend in ("python", "numpy"):
            with kernels.use_backend(backend):
                op = SGBAnyOperator(self.EPS, strategy="grid",
                                    count_distance_computations=True)
                op.add_many(_points(self.N, seed=13))
                op.finalize()
            counters[backend] = op.stats.nonzero()
        assert counters["numpy"] == counters["python"]

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("on_overlap",
                             ["join-any", "eliminate", "form-new-group"])
    def test_sgb_all_counters_identical(self, strategy, on_overlap):
        # Groups of 24+ members among 16+ live groups: every member and
        # rectangle scan runs the same loops, distance_computations included.
        from repro.core.sgb_all import SGBAllOperator

        counters = {}
        for backend in ("python", "numpy"):
            with kernels.use_backend(backend):
                op = SGBAllOperator(0.5, strategy=strategy,
                                    on_overlap=on_overlap, tiebreak="random",
                                    seed=3, count_distance_computations=True)
                op.add_many(_clusters())
                op.finalize()
            counters[backend] = op.stats.nonzero()
        assert counters["numpy"] == counters["python"]


class TestPartitionedAPI:
    def _keyed_points(self, n=240, n_parts=5, seed=21):
        rng = random.Random(seed)
        pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
        keys = [rng.randrange(n_parts) for _ in range(n)]
        return pts, keys

    def test_partitions_confine_groups(self):
        pts, keys = self._keyed_points()
        result = sgb_any(pts, 2.0, partitions=keys)
        label_key = {}
        for label, key in zip(result.labels, keys):
            if label < 0:
                continue
            assert label_key.setdefault(label, key) == key

    def test_partitions_eliminated_pass_through(self):
        pts, keys = self._keyed_points(n=120)
        result = sgb_all(pts, 0.4, on_overlap="eliminate", partitions=keys)
        unpartitioned_per_key = {}
        for key in set(keys):
            sub = [p for p, k in zip(pts, keys) if k == key]
            unpartitioned_per_key[key] = sgb_all(sub, 0.4,
                                                 on_overlap="eliminate")
        for key, sub_result in unpartitioned_per_key.items():
            mine = [lab for lab, k in zip(result.labels, keys) if k == key]
            assert [m < 0 for m in mine] == \
                [lab < 0 for lab in sub_result.labels]

    def test_partitions_length_mismatch_raises(self):
        with pytest.raises(InvalidParameterError):
            sgb_any([(0, 0), (1, 1)], 1.0, partitions=["a"])

    @pytest.mark.parametrize("fn", [sgb_all, sgb_any])
    def test_unhashable_partition_key_names_its_index(self, fn):
        # Used to escape as a bare ``TypeError: unhashable type: 'list'``
        # from the partition bucketing.
        with pytest.raises(InvalidParameterError, match="index 1"):
            fn([(0, 0), (1, 1)], 1.0, partitions=[2, [1]])

    def test_partition_seed_stable_and_decorrelated(self):
        assert partition_seed(7, ()) == 7
        assert partition_seed(7, ("a",)) == partition_seed(7, ("a",))
        assert partition_seed(7, ("a",)) != partition_seed(7, ("b",))
        assert partition_seed(7, ("a",)) != 7
