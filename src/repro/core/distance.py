"""Distance metrics used by the similarity predicate (paper, Definition 1).

The paper evaluates SGB under two Minkowski metrics: the Euclidean distance
``L2`` and the maximum ("Chebyshev") distance ``L∞``.  We additionally expose
the general Minkowski ``Lp`` family as an extension; every metric here
satisfies symmetry, non-negativity and the triangle inequality, which is what
the bounding-rectangle filter relies on.

Metrics are small stateless objects so operators can be parameterized by a
metric instance and the hot ``distance``/``within`` calls stay monomorphic.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple, Union

from repro.errors import DimensionMismatchError, InvalidParameterError

Point = Tuple[float, ...]
PointLike = Sequence[float]


class Metric:
    """Base class for distance metrics.

    Subclasses implement :meth:`distance`.  :meth:`within` is the similarity
    predicate ``ξ(p, q) : δ(p, q) <= eps`` from Definition 2 and may be
    overridden with a cheaper short-circuiting form.
    """

    #: short lowercase name used by the SQL grammar and the array API.
    name = "abstract"

    def distance(self, p: PointLike, q: PointLike) -> float:
        raise NotImplementedError

    def within(self, p: PointLike, q: PointLike, eps: float) -> bool:
        """Return True iff ``distance(p, q) <= eps``."""
        return self.distance(p, q) <= eps

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<Metric {self.name}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Metric) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)


class EuclideanMetric(Metric):
    """The Euclidean distance ``L2`` (paper Section 3)."""

    name = "l2"

    def distance(self, p: PointLike, q: PointLike) -> float:
        if len(p) != len(q):
            raise DimensionMismatchError(
                f"points have different dimensions: {len(p)} vs {len(q)}"
            )
        return math.sqrt(sum((a - b) * (a - b) for a, b in zip(p, q)))

    def within(self, p: PointLike, q: PointLike, eps: float) -> bool:
        # Compare squared values to avoid the sqrt on the hot path, and bail
        # out early once the running sum already exceeds eps**2.
        if len(p) != len(q):
            raise DimensionMismatchError(
                f"points have different dimensions: {len(p)} vs {len(q)}"
            )
        limit = eps * eps
        total = 0.0
        for a, b in zip(p, q):
            d = a - b
            total += d * d
            if total > limit:
                return False
        return True


class ChebyshevMetric(Metric):
    """The maximum distance ``L∞`` (paper Section 3)."""

    name = "linf"

    def distance(self, p: PointLike, q: PointLike) -> float:
        if len(p) != len(q):
            raise DimensionMismatchError(
                f"points have different dimensions: {len(p)} vs {len(q)}"
            )
        return max(abs(a - b) for a, b in zip(p, q))

    def within(self, p: PointLike, q: PointLike, eps: float) -> bool:
        if len(p) != len(q):
            raise DimensionMismatchError(
                f"points have different dimensions: {len(p)} vs {len(q)}"
            )
        for a, b in zip(p, q):
            if abs(a - b) > eps:
                return False
        return True


class MinkowskiMetric(Metric):
    """The general ``Lp`` metric for ``p >= 1`` (extension beyond the paper).

    ``p = 1`` is the Manhattan distance.  Arbitrary ``p`` still admits the
    ε-All rectangle filter because ``Lp(x, y) <= eps`` implies every
    per-dimension difference is at most ``eps``.
    """

    def __init__(self, p: float):
        if p < 1:
            raise InvalidParameterError(f"Minkowski order must be >= 1, got {p}")
        self.p = float(p)
        self.name = f"l{p:g}"

    def distance(self, p: PointLike, q: PointLike) -> float:
        if len(p) != len(q):
            raise DimensionMismatchError(
                f"points have different dimensions: {len(p)} vs {len(q)}"
            )
        return sum(abs(a - b) ** self.p for a, b in zip(p, q)) ** (1.0 / self.p)

    def within(self, p: PointLike, q: PointLike, eps: float) -> bool:
        # Compare powered sums (Σ|a-b|^p vs eps^p) to skip the 1/p root,
        # bailing out once the running sum exceeds the bound — the Lp
        # analogue of EuclideanMetric's squared-distance early exit.
        if len(p) != len(q):
            raise DimensionMismatchError(
                f"points have different dimensions: {len(p)} vs {len(q)}"
            )
        order = self.p
        limit = eps ** order
        total = 0.0
        for a, b in zip(p, q):
            total += abs(a - b) ** order
            if total > limit:
                return False
        return True


class CountingMetric(Metric):
    """Transparent proxy that counts similarity-predicate evaluations.

    The paper's speedups are about *avoiding distance computations* (the
    filter-refine structures replace member scans with O(1) rectangle
    tests), and wall-clock numbers in Python carry interpreter noise; the
    ``distance``/``within`` call count is the machine-independent way to
    verify the claimed savings.  Every SGB operator counts through one
    (:func:`counting_metric`) and mirrors the tally into its
    ``stats.distance_computations``.  The vectorized kernels charge
    ``calls`` in bulk; ``Group``'s python member scans go through
    ``within`` here.
    """

    def __init__(self, inner: Metric):
        self.inner = inner
        self.name = inner.name  # strategies dispatch on the name
        self.calls = 0

    def distance(self, p: PointLike, q: PointLike) -> float:
        self.calls += 1
        return self.inner.distance(p, q)

    def within(self, p: PointLike, q: PointLike, eps: float) -> bool:
        self.calls += 1
        return self.inner.within(p, q, eps)


#: Singleton instances; operators accept either these or the string names.
L2 = EuclideanMetric()
LINF = ChebyshevMetric()
L1 = MinkowskiMetric(1)

_METRICS = {
    "l2": L2,
    "euclidean": L2,
    "ltwo": L2,
    "linf": LINF,
    "lone": LINF,  # Table 2 shorthand, as in the SQL parser's _METRIC_WORDS
    "chebyshev": LINF,
    "max": LINF,
    "l1": L1,
    "manhattan": L1,
}


def resolve_metric(metric: Union[str, Metric]) -> Metric:
    """Return a :class:`Metric` instance for a name or pass one through.

    >>> resolve_metric("l2") is L2
    True
    >>> resolve_metric(LINF) is LINF
    True
    """
    if isinstance(metric, Metric):
        return metric
    try:
        return _METRICS[metric.lower()]
    except (KeyError, AttributeError):
        raise InvalidParameterError(
            f"unknown metric {metric!r}; expected one of {sorted(_METRICS)}"
        ) from None


def counting_metric(metric: Union[str, Metric]) -> CountingMetric:
    """An operator's metric: ``metric`` resolved and wrapped in a
    :class:`CountingMetric`, or a ``CountingMetric`` passed in, as it is.

    >>> counting_metric("l2").inner is L2
    True
    >>> counted = CountingMetric(LINF)
    >>> counting_metric(counted) is counted
    True
    """
    metric = resolve_metric(metric)
    if isinstance(metric, CountingMetric):
        return metric
    return CountingMetric(metric)
