"""Structural types shared by the kernel backends.

The kernels are deliberately decoupled from :mod:`repro.core.distance`
(the reference ``Metric`` classes call *into* the kernel layer's callers,
so a nominal import here would be a cycle); backends accept any object
that looks like a metric.  ``MetricLike`` writes that duck contract down
so the strict-mypy gate checks it instead of trusting it.
"""

from __future__ import annotations

from typing import Any, List, Protocol, Sequence, Tuple

from repro.geometry.rectangle import EPS_WIDEN  # noqa: F401 - re-exported

#: A point is an immutable coordinate tuple (the operators' row slice).
Point = Tuple[float, ...]

#: Loose input form: backends accept any float sequence per point.
Coords = Sequence[float]


class MetricLike(Protocol):
    """What a kernel needs from a metric: a name (for exact-box special
    cases like L∞) and the ε-predicate.  The SGB operators always pass a
    ``CountingMetric``; both backends charge its ``calls`` in bulk where
    they find them, so a bare metric (a snapshot's, or a direct kernel
    call's) is served too and charges nothing."""

    @property
    def name(self) -> str: ...

    def within(self, p: Coords, q: Coords, eps: float) -> bool: ...


#: One block of ε-self-join output, ``(us, vs, n_box)``: parallel
#: sequences of edge-endpoint ids (lists or integer arrays, whichever the
#: backend produces) and the number of pairs the block found inside the
#: ε-box, the ``candidates`` tally.
EdgeBlock = Tuple[Any, Any, int]


class ComponentsLike(Protocol):
    """Connected components of ids ``0..n-1``, built from edge blocks."""

    def add_edges(self, us: Sequence[int], vs: Sequence[int]) -> None: ...

    @property
    def n_components(self) -> int: ...

    def labels(self) -> List[int]:
        """Dense labels numbered by first appearance over id order."""
        ...
