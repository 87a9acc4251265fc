"""Shared test helpers: brute-force oracles and point-set strategies."""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Set, Tuple

import pytest

Point = Tuple[float, ...]


def l2(p: Sequence[float], q: Sequence[float]) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


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


@pytest.fixture
def small_points() -> List[Point]:
    return random_points(40, seed=1)
