"""Bit-identical membership parity across every index strategy.

The index layer (R-tree, uniform grid) buys raw speed only — group
labels must stay *bit-identical* to the linear scan on every workload
shape, under both kernel backends, for both SGB modes.  Strategy choice is purely a performance decision; this
file is the contract that keeps it that way.
"""

import pytest

from repro import kernels
from repro.bench.experiments import skewed_points, uniform_points
from repro.core.api import sgb_all, sgb_any
from repro.stats.chooser import ALL_STRATEGIES, ANY_STRATEGIES

#: (name, points, eps) — dense, sparse, and cluster-skewed ε-graphs,
#: plus heavy duplicates (stacked grid cells).
WORKLOADS = [
    ("dense", uniform_points(300, seed=1, span=10.0), 1.2),
    ("sparse", uniform_points(300, seed=2, span=100.0), 0.8),
    ("skewed", skewed_points(300, seed=3, span=40.0), 1.5),
    ("dups", [(float(i % 7), float(i % 5)) for i in range(200)], 1.0),
]

BACKENDS = [
    pytest.param(
        name,
        marks=() if name in kernels.available_backends()
        else pytest.mark.skip(reason=f"{name} backend unavailable"),
    )
    for name in ("python", "numpy")
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workload", [w[0] for w in WORKLOADS])
@pytest.mark.parametrize("metric", ["l2", "linf", "l1"])
class TestAnyStrategyParity:
    def test_labels_bit_identical_to_linear_scan(
        self, backend, workload, metric
    ):
        points, eps = next(
            (pts, eps) for name, pts, eps in WORKLOADS if name == workload
        )
        with kernels.use_backend(backend):
            baseline = sgb_any(points, eps, metric, "all-pairs").labels
            for strategy in ANY_STRATEGIES[1:]:
                labels = sgb_any(points, eps, metric, strategy).labels
                assert labels == baseline, (strategy, backend, workload)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workload", [w[0] for w in WORKLOADS])
class TestAllStrategyParity:
    def test_labels_bit_identical_across_strategies(self, backend, workload):
        points, eps = next(
            (pts, eps) for name, pts, eps in WORKLOADS if name == workload
        )
        with kernels.use_backend(backend):
            results = {
                s: sgb_all(points, eps, "l2", strategy=s,
                           tiebreak="first").labels
                for s in ALL_STRATEGIES
            }
        baseline = results[ALL_STRATEGIES[0]]
        assert all(r == baseline for r in results.values())


@pytest.mark.parametrize("backend", BACKENDS)
class TestCrossBackendParity:
    """The same strategy must also agree with itself across backends."""

    @pytest.mark.parametrize("strategy", ANY_STRATEGIES)
    def test_new_strategies_match_python_reference(self, backend, strategy):
        points, eps = WORKLOADS[0][1], WORKLOADS[0][2]
        with kernels.use_backend("python"):
            reference = sgb_any(points, eps, "l2", strategy).labels
        with kernels.use_backend(backend):
            assert sgb_any(points, eps, "l2", strategy).labels == reference
