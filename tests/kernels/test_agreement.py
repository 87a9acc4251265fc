"""End-to-end agreement: numpy vs python backends, serial vs parallel.

The contract (docs/architecture.md, "Execution backends"):

* both kernel backends produce identical memberships — bit-identical
  labels, not merely equal partitions, because candidate lists are
  id-ordered under both so even random JOIN-ANY tiebreaks replay;
* the partition-parallel path produces labels identical to serial and
  EXPLAIN ANALYZE counter totals equal to the serial run's.
"""

import random

import pytest

from repro import Database, kernels
from repro.core.api import sgb_all, sgb_any
from repro.stats.chooser import ALL_STRATEGIES, ANY_STRATEGIES

HAS_NUMPY = "numpy" in kernels.available_backends()
needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")


def _points(n, seed=0, span=10.0):
    rng = random.Random(seed)
    return [(rng.uniform(0, span), rng.uniform(0, span)) for _ in range(n)]


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
        from repro.obs.metrics import MetricBag

        counters = {}
        for backend in ("python", "numpy"):
            with kernels.use_backend(backend):
                bag = MetricBag()
                op = SGBAnyOperator(self.EPS, strategy="grid", metrics=bag)
                op.add_many(_points(self.N, seed=13))
                op.finalize()
            counters[backend] = dict(bag.counters)
        assert counters["numpy"] == counters["python"]


class TestParallelAgreement:
    def _keyed_points(self, n=240, n_parts=5, seed=21):
        rng = random.Random(seed)
        pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
        keys = [rng.randrange(n_parts) for _ in range(n)]
        return pts, keys

    @pytest.mark.parametrize("mode,kwargs", [
        ("any", dict(strategy="grid")),
        ("all", dict(on_overlap="join-any", tiebreak="random", seed=5)),
        ("all", dict(on_overlap="eliminate")),
    ])
    def test_api_labels_identical_across_workers(self, mode, kwargs):
        pts, keys = self._keyed_points()
        fn = sgb_any if mode == "any" else sgb_all
        serial = fn(pts, 0.5, partitions=keys, parallel=0, **kwargs)
        pooled = fn(pts, 0.5, partitions=keys, parallel=2, **kwargs)
        assert serial.labels == pooled.labels

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
        result = sgb_all(pts, 0.4, on_overlap="eliminate",
                         partitions=keys, parallel=2)
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
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            sgb_any([(0, 0), (1, 1)], 1.0, partitions=["a"])


class TestEngineParallelAgreement:
    SQL = ("SELECT k, count(*), avg(x) FROM t GROUP BY x, y "
           "DISTANCE-TO-ALL L2 WITHIN 0.8 ON-OVERLAP JOIN-ANY "
           "PARTITION BY k")

    def _db(self, parallel):
        rng = random.Random(11)
        db = Database(seed=3, parallel=parallel)
        db.execute("CREATE TABLE t (k int, x float, y float)")
        db.insert("t", [(i % 4, rng.uniform(0, 10), rng.uniform(0, 10))
                        for i in range(240)])
        return db

    def test_rows_identical(self):
        assert self._db(0).execute(self.SQL).rows == \
            self._db(3).execute(self.SQL).rows

    def test_explain_analyze_counters_merge_to_serial_totals(self):
        serial = self._db(0).analyze(self.SQL)
        pooled = self._db(3).analyze(self.SQL)
        assert serial.rows == pooled.rows

        def counters(analyzed):
            return {k: v for k, v in analyzed.node_counters().items()
                    if not k.endswith("_s")}

        assert counters(serial) == counters(pooled)

    def test_single_partition_stays_serial(self):
        # without PARTITION BY there is one partition; the pool must not
        # engage (and results must still match)
        sql = ("SELECT count(*) FROM t GROUP BY x, y "
               "DISTANCE-TO-ANY L2 WITHIN 0.8")
        assert self._db(0).execute(sql).rows == self._db(4).execute(sql).rows

    def test_negative_parallel_means_cpu_count(self):
        from repro.core.parallel import resolve_workers
        import os

        assert resolve_workers(-1) == max(1, os.cpu_count() or 1)
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(6) == 6
        assert resolve_workers(None) == 1

    def test_partition_seed_stable_and_decorrelated(self):
        from repro.core.parallel import partition_seed

        assert partition_seed(7, ()) == 7
        assert partition_seed(7, ("a",)) == partition_seed(7, ("a",))
        assert partition_seed(7, ("a",)) != partition_seed(7, ("b",))
        assert partition_seed(7, ("a",)) != 7
