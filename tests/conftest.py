"""Shared test helpers: brute-force oracles and point-set strategies."""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Set, Tuple

import pytest
from hypothesis import strategies as st

Point = Tuple[float, ...]


def l2(p: Sequence[float], q: Sequence[float]) -> float:
    try:
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))
    except OverflowError:  # a square past the float range (``**`` raises)
        return math.inf


def linf(p: Sequence[float], q: Sequence[float]) -> float:
    return max(abs(a - b) for a, b in zip(p, q))


def l1(p: Sequence[float], q: Sequence[float]) -> float:
    return sum(abs(a - b) for a, b in zip(p, q))


def dist(p, q, metric: str) -> float:
    return {"l2": l2, "linf": linf, "l1": l1}[metric](p, q)


def is_clique(points: Sequence[Point], members: Sequence[int], eps: float,
              metric: str) -> bool:
    """Oracle: all pairwise distances within a group are <= eps."""
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if dist(points[a], points[b], metric) > eps + 1e-9:
                return False
    return True


def connected_components(points: Sequence[Point], eps: float,
                         metric: str) -> List[Set[int]]:
    """Oracle for SGB-Any: components of the eps-neighbourhood graph."""
    n = len(points)
    seen = [False] * n
    components: List[Set[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        comp = {start}
        seen[start] = True
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in range(n):
                if not seen[v] and dist(points[u], points[v], metric) <= eps:
                    seen[v] = True
                    comp.add(v)
                    frontier.append(v)
        components.append(comp)
    return components


def random_points(n: int, seed: int, span: float = 10.0,
                  dim: int = 2) -> List[Point]:
    rng = random.Random(seed)
    return [tuple(rng.uniform(0, span) for _ in range(dim)) for _ in range(n)]


#: Decimal lattice steps: ``k * step`` is not a binary fraction, so points
#: ``m`` steps apart are at an exact float tie with ``eps = m * step`` that
#: ``v - eps <= q``, ``q - eps <= v`` and ``|q - v| <= eps`` round apart.
LATTICE_STEPS = (0.1, 0.3, 0.7)


def decimal_lattice(seed: int, n: int = 150) -> Tuple[List[Point], float]:
    """``(points, eps)``: ``n`` seeded points on a decimal lattice in 2 or
    3 dimensions, ``eps`` one to three steps."""
    rng = random.Random(seed)
    step = rng.choice(LATTICE_STEPS)
    dim = rng.choice((2, 3))
    span = rng.randint(6, 20)
    eps = rng.randint(1, 3) * step
    points = [tuple(rng.randrange(span) * step for _ in range(dim))
              for _ in range(n)]
    return points, eps


@st.composite
def decimal_lattices(draw, max_points: int = 40,
                     dims: Sequence[int] = (2, 3)):
    """Hypothesis form of :func:`decimal_lattice`, in any of ``dims``."""
    step = draw(st.sampled_from(LATTICE_STEPS))
    dim = draw(st.sampled_from(dims))
    coord = st.integers(0, draw(st.integers(2, 12))).map(lambda k: k * step)
    points = draw(st.lists(st.tuples(*[coord] * dim),
                           min_size=2, max_size=max_points))
    return points, draw(st.integers(1, 3)) * step


def partition_of(labels: Sequence[int]) -> List[Tuple[int, ...]]:
    """The grouping a label vector induces, label numbering removed."""
    groups: dict = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    return sorted(map(tuple, groups.values()))


@pytest.fixture
def small_points() -> List[Point]:
    return random_points(40, seed=1)
