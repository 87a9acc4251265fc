"""Batch distance-kernel backends for the SGB hot paths.

The SGB-Any strategies and SGB-All's ``graph`` strategy evaluate the
similarity predicate against a *block* of points: the naive all-pairs
scan, a grid cell neighbourhood, the R-tree window hits, or the whole
input's ε-self-join.  This package is the seam between those call sites
and two interchangeable implementations:

* ``numpy`` — vectorized array-at-a-time kernels over contiguous buffers
  (:mod:`repro.kernels.numpy_backend`; requires the ``fast`` extra);
* ``python`` — the original dependency-free loops
  (:mod:`repro.kernels.python_backend`).

SGB-All's paper strategies (all-pairs, bounds-checking, index) scan a
group's members and MBR with :class:`repro.core.groups.Group`'s own loops
and do not come through here.

Selection happens once at import: numpy if importable, else python.  The
``REPRO_BACKEND`` environment variable (``numpy`` | ``python``) overrides
auto-detection, and :func:`set_backend` / :func:`use_backend` switch at
runtime (tests, benchmarks).  Both backends produce identical group
memberships and identical observability counters; see
docs/architecture.md ("Execution backends").

The module-level functions re-dispatch on every call, so a backend switch
affects operators constructed afterwards (a point store is created by the
backend that was active at operator construction).
"""

from __future__ import annotations

import contextlib
import os
import types
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError

from repro.kernels._protocols import (
    EPS_WIDEN,
    ComponentsLike,
    Coords,
    EdgeBlock,
    MetricLike,
    Point,
)
from repro.kernels import python_backend as _python

BACKEND_ENV_VAR = "REPRO_BACKEND"

_numpy: Optional[types.ModuleType]
try:  # the numpy backend is optional (the ``fast`` extra)
    from repro.kernels import numpy_backend as _numpy
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _numpy = None

_BACKENDS = {"python": _python}
if _numpy is not None:
    _BACKENDS["numpy"] = _numpy


def _select_initial() -> types.ModuleType:
    choice = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    if choice:
        if choice not in ("numpy", "python"):
            raise InvalidParameterError(
                f"{BACKEND_ENV_VAR} must be 'numpy' or 'python', got {choice!r}"
            )
        if choice == "numpy" and _numpy is None:
            raise InvalidParameterError(
                f"{BACKEND_ENV_VAR}=numpy but numpy is not installed; "
                "install the 'fast' extra (pip install repro[fast])"
            )
        return _BACKENDS[choice]
    return _numpy if _numpy is not None else _python


_impl = _select_initial()


# ----------------------------------------------------------------------
# backend management
# ----------------------------------------------------------------------
def active_backend() -> str:
    """Name of the backend serving kernel calls: ``"numpy"`` | ``"python"``."""
    return _impl.name


def available_backends() -> Tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def set_backend(name: str) -> str:
    """Switch the process-wide backend; returns the previous name."""
    global _impl
    key = name.strip().lower()
    if key not in _BACKENDS:
        raise InvalidParameterError(
            f"unknown or unavailable backend {name!r}; "
            f"available: {available_backends()}"
        )
    previous = _impl.name
    _impl = _BACKENDS[key]
    return previous


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily switch backends (tests / benchmarks)."""
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


# ----------------------------------------------------------------------
# dispatched primitives
# ----------------------------------------------------------------------
def pairwise_within(points: Sequence[Coords], q: Coords, eps: float,
                    metric: MetricLike) -> List[bool]:
    """Per-point results of ``metric.within(p, q, eps)`` over a block."""
    return _impl.pairwise_within(points, q, eps, metric)


def batch_eps_neighbors(points: Sequence[Coords], probes: Sequence[Coords],
                        eps: float, metric: MetricLike) -> List[List[int]]:
    """Per-probe ascending indices of block points within ``eps``."""
    return _impl.batch_eps_neighbors(points, probes, eps, metric)


def eps_self_join(points: Sequence[Coords], eps: float, metric: MetricLike,
                  count: bool = True) -> Iterator[EdgeBlock]:
    """ε-self-join of a whole point set: every unordered pair within
    ``eps`` once, in bounded ``(us, vs, n_box)`` edge blocks."""
    return _impl.eps_self_join(points, eps, metric, count)


def csr_adjacency(n: int, blocks: Iterable[EdgeBlock],
                  ) -> Tuple[List[int], List[int]]:
    """The ε-graph over ids ``0..n-1`` from edge blocks, as CSR lists
    ``(indptr, indices)``: the neighbours of ``i`` are
    ``indices[indptr[i]:indptr[i + 1]]``, every edge listed both ways."""
    return _impl.csr_adjacency(n, blocks)


def make_components(n: int) -> ComponentsLike:
    """Backend-native connected components over ids ``0..n-1``."""
    return _impl.make_components(n)


def make_point_store() -> Any:
    """Backend-native append-only point collection (dense ids)."""
    return _impl.make_point_store()


__all__ = [
    "BACKEND_ENV_VAR",
    "ComponentsLike",
    "Coords",
    "EPS_WIDEN",
    "EdgeBlock",
    "MetricLike",
    "Point",
    "active_backend",
    "available_backends",
    "set_backend",
    "use_backend",
    "pairwise_within",
    "batch_eps_neighbors",
    "eps_self_join",
    "csr_adjacency",
    "make_components",
    "make_point_store",
]
