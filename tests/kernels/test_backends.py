"""Kernel dispatch layer + primitive parity between backends."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import kernels
from repro.core.distance import L1, L2, LINF
from repro.core.distance import CountingMetric
from repro.errors import InvalidParameterError

HAS_NUMPY = "numpy" in kernels.available_backends()
needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")


def _random_points(n, dim=2, seed=0, span=10.0):
    rng = random.Random(seed)
    return [tuple(rng.uniform(0, span) for _ in range(dim)) for _ in range(n)]


class TestDispatch:
    def test_active_backend_is_available(self):
        assert kernels.active_backend() in kernels.available_backends()

    def test_python_always_available(self):
        assert "python" in kernels.available_backends()

    def test_set_backend_roundtrip(self):
        current = kernels.active_backend()
        previous = kernels.set_backend("python")
        assert previous == current
        assert kernels.active_backend() == "python"
        kernels.set_backend(current)

    def test_set_backend_rejects_unknown(self):
        with pytest.raises(InvalidParameterError):
            kernels.set_backend("fortran")

    def test_use_backend_restores_on_exit(self):
        before = kernels.active_backend()
        with kernels.use_backend("python"):
            assert kernels.active_backend() == "python"
        assert kernels.active_backend() == before

    def test_use_backend_restores_on_error(self):
        before = kernels.active_backend()
        with pytest.raises(RuntimeError):
            with kernels.use_backend("python"):
                raise RuntimeError("boom")
        assert kernels.active_backend() == before

    def _fresh_import(self, backend_value):
        env = dict(os.environ)
        repo_root = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = str(repo_root / "src")
        env["REPRO_BACKEND"] = backend_value
        return subprocess.run(
            [sys.executable, "-c",
             "from repro import kernels; print(kernels.active_backend())"],
            capture_output=True, text=True, env=env, cwd=str(repo_root),
        )

    def test_env_var_selects_python(self):
        out = self._fresh_import("python")
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "python"

    def test_env_var_rejects_garbage(self):
        out = self._fresh_import("rust")
        assert out.returncode != 0
        assert "REPRO_BACKEND" in out.stderr


@pytest.mark.parametrize("metric", [L2, LINF, L1], ids=lambda m: m.name)
class TestPrimitiveParity:
    """Stateless primitives: numpy must equal the reference loops."""

    def _both(self, fn_name, *args):
        with kernels.use_backend("python"):
            expected = getattr(kernels, fn_name)(*args)
        if not HAS_NUMPY:
            return expected, expected
        with kernels.use_backend("numpy"):
            got = getattr(kernels, fn_name)(*args)
        return expected, got

    def test_pairwise_within(self, metric):
        pts = _random_points(100, seed=1)
        q = (5.0, 5.0)
        expected, got = self._both("pairwise_within", pts, q, 2.5, metric)
        assert list(got) == list(expected)

    @pytest.mark.parametrize("dim", [2, 3, 5, 9])
    def test_exact_ties_round_alike(self, metric, dim):
        # On a decimal lattice many pairs sit at an exact float tie with
        # eps; the numpy masks accumulate the per-axis terms in the order
        # of the Metric.within loops (einsum and pairwise sums do not),
        # so the tie falls the same way under both backends.
        rng = random.Random(dim)
        pts = [tuple(rng.randrange(8) * 0.3 for _ in range(dim))
               for _ in range(400)]
        for q in pts[:40]:
            expected, got = self._both("pairwise_within", pts, q, 0.9,
                                       metric)
            assert list(got) == list(expected)
            expected, got = self._both("batch_eps_neighbors", pts, [q], 0.9,
                                       metric)
            assert [list(r) for r in got] == [list(r) for r in expected]

    def test_empty_block(self, metric):
        expected, got = self._both("pairwise_within", [], (1.0, 1.0), 1.0,
                                   metric)
        assert list(got) == list(expected) == []

    def test_batch_eps_neighbors(self, metric):
        pts = _random_points(90, seed=5)
        probes = _random_points(25, seed=6)
        expected, got = self._both(
            "batch_eps_neighbors", pts, probes, 2.0, metric
        )
        assert [list(r) for r in got] == [list(r) for r in expected]
        for row, q in zip(got, probes):
            assert list(row) == sorted(row)
            assert all(metric.within(pts[i], q, 2.0) for i in row)

    def test_batch_eps_neighbors_counting_parity(self, metric):
        # both backends evaluate every (probe, point) pair — no early
        # exit — so a CountingMetric observes m*n under each.
        pts = _random_points(40, seed=7)
        probes = _random_points(10, seed=8)
        calls = {}
        for backend in kernels.available_backends():
            counting = CountingMetric(metric)
            with kernels.use_backend(backend):
                kernels.batch_eps_neighbors(pts, probes, 1.5, counting)
            calls[backend] = counting.calls
        assert set(calls.values()) == {len(pts) * len(probes)}

    def test_batch_eps_neighbors_empty(self, metric):
        expected, got = self._both("batch_eps_neighbors", [], [(1.0, 1.0)],
                                   1.0, metric)
        assert [list(r) for r in got] == [list(r) for r in expected] == [[]]
        expected, got = self._both("batch_eps_neighbors",
                                   [(1.0, 1.0)], [], 1.0, metric)
        assert list(got) == list(expected) == []


class TestPointStoreParity:
    """The incremental store used by every SGB-Any strategy."""

    def _stores(self):
        stores = []
        for backend in kernels.available_backends():
            with kernels.use_backend(backend):
                stores.append((backend, kernels.make_point_store()))
        return stores

    def test_append_returns_dense_ids(self):
        for _, store in self._stores():
            assert [store.append(p) for p in _random_points(10)] == \
                list(range(10))
            assert len(store) == 10

    def test_query_all_parity(self):
        pts = _random_points(300, seed=5)
        results = {}
        for backend, store in self._stores():
            for p in pts:
                store.append(p)
            results[backend] = store.query_all((5.0, 5.0), 1.5, L2)
        expected = results["python"]
        assert expected == sorted(expected)
        for backend, got in results.items():
            assert got == expected, backend

    @pytest.mark.parametrize("metric", [L2, LINF, L1], ids=lambda m: m.name)
    def test_query_ids_eps_box_parity(self, metric):
        pts = _random_points(400, seed=7)
        q, eps = (5.0, 5.0), 1.2
        outputs = {}
        for backend, store in self._stores():
            for p in pts:
                store.append(p)
            outputs[backend] = store.query_gathered(
                list(range(len(pts))), q, eps, metric
            )
        expected_ids, expected_window = outputs["python"]
        for backend, (ids, n_window) in outputs.items():
            assert ids == expected_ids, backend
            assert n_window == expected_window, backend

    def test_query_ids_eps_box_counting_parity(self):
        # SGB-Any grid-path contract: the CountingMetric sees exactly the
        # same number of evaluations under both backends (no early exit
        # exists between independent pairs).
        pts = _random_points(400, seed=8)
        calls = {}
        for backend, store in self._stores():
            metric = CountingMetric(L2)
            for p in pts:
                store.append(p)
            store.query_gathered(
                list(range(len(pts))), (5.0, 5.0), 1.2, metric
            )
            calls[backend] = metric.calls
        assert len(set(calls.values())) == 1, calls

    def test_linf_box_is_exact_no_metric_charge(self):
        pts = _random_points(200, seed=9)
        for backend, store in self._stores():
            metric = CountingMetric(LINF)
            for p in pts:
                store.append(p)
            ids, n_window = store.query_gathered(
                list(range(len(pts))), (5.0, 5.0), 1.0, metric
            )
            assert metric.calls == 0, backend
            assert len(ids) == n_window


@needs_numpy
class TestNumpyInternals:
    def test_small_batches_stay_correct_across_threshold(self):
        # the python-fallback / vectorized crossover must be seamless
        import repro.kernels.numpy_backend as nb

        pts = _random_points(3 * nb._EPS_BOX_FALLBACK, seed=10)
        with kernels.use_backend("numpy"):
            store = kernels.make_point_store()
        for p in pts:
            store.append(p)
        for size in (1, nb._EPS_BOX_FALLBACK - 1, nb._EPS_BOX_FALLBACK,
                     nb._EPS_BOX_FALLBACK + 1, len(pts)):
            ids = list(range(size))
            got, _ = store.query_gathered(ids, (5.0, 5.0), 2.0, L2)
            assert got == [i for i in ids
                           if L2.within(pts[i], (5, 5), 2.0)
                           and all(abs(a - b) <= 2.0
                                   for a, b in zip(pts[i], (5, 5)))]

    def test_interleaved_append_and_query(self):
        # appends after a vectorized query must invalidate the lazy buffer
        with kernels.use_backend("numpy"):
            store = kernels.make_point_store()
        rng = random.Random(11)
        mirror = []
        for round_no in range(5):
            for _ in range(60):
                p = (rng.uniform(0, 10), rng.uniform(0, 10))
                store.append(p)
                mirror.append(p)
            got = store.query_all((5.0, 5.0), 2.0, L2)
            expected = [i for i, p in enumerate(mirror)
                        if L2.within(p, (5, 5), 2.0)]
            assert got == expected, round_no
