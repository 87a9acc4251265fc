"""Disjoint-set forest (Union-Find) used by SGB-Any (paper §7, [19]).

Path compression plus union by size gives the near-constant amortized
operations the paper's complexity analysis cites (Tarjan & van Leeuwen).
Elements are created lazily on first touch and may be any hashable value;
SGB-Any uses integer point ids.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List


class UnionFind:
    """Disjoint sets over arbitrary hashable elements."""

    def __init__(self, elements: Iterable[Hashable] = ()):
        self._parent: Dict[Hashable, Hashable] = {}
        self._size: Dict[Hashable, int] = {}
        self._components = 0
        for e in elements:
            self.add(e)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of elements tracked."""
        return len(self._parent)

    def __contains__(self, x: Hashable) -> bool:
        return x in self._parent

    @property
    def n_components(self) -> int:
        return self._components

    def add(self, x: Hashable) -> None:
        """Register ``x`` as a singleton set (no-op if already present)."""
        if x not in self._parent:
            self._parent[x] = x
            self._size[x] = 1
            self._components += 1

    def find(self, x: Hashable) -> Hashable:
        """Representative of ``x``'s set, with path compression."""
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: Hashable, b: Hashable) -> Hashable:
        """Merge the sets of ``a`` and ``b``; returns the new root.

        Unknown elements are added first, so SGB-Any can union a fresh point
        against its neighbours in one call.
        """
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size.pop(rb)
        self._components -= 1
        return ra

    def connected(self, a: Hashable, b: Hashable) -> bool:
        if a not in self._parent or b not in self._parent:
            return False
        return self.find(a) == self.find(b)

    def component_size(self, x: Hashable) -> int:
        return self._size[self.find(x)]

    def groups(self) -> Dict[Hashable, List[Hashable]]:
        """Materialize root -> members mapping (insertion order preserved)."""
        out: Dict[Hashable, List[Hashable]] = {}
        for x in self._parent:
            out.setdefault(self.find(x), []).append(x)
        return out

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._parent)


def component_labels(uf: UnionFind, n_points: int) -> List[int]:
    """Dense labels for point ids ``0..n_points-1``, numbered in order of
    first appearance over insertion order."""
    labels: List[int] = []
    root_to_label: Dict[Hashable, int] = {}
    find = uf.find
    for pid in range(n_points):
        root = find(pid)
        label = root_to_label.get(root)
        if label is None:
            label = root_to_label[root] = len(root_to_label)
        labels.append(label)
    return labels
