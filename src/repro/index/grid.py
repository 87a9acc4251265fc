"""Uniform grid index over points: the streaming form of SGB-Any ``grid``.

SGB-Any only ever issues fixed-size window queries (side ``2ε``), which a
hash grid with cell side ``ε`` answers by probing a constant number of
neighbouring cells.  ``grid`` is the planner's choice on every check-in
statement; this incremental index serves it where points arrive one at a
time (:class:`~repro.streaming.any_engine.StreamingSGBAny`, stream views:
probe, then insert).  The batch operator sees its whole input at once and
runs the same grid as a set-at-a-time ε-self-join instead
(:func:`repro.kernels.eps_self_join`), binning by this module's cell
function ``v // cell_size``.  ``python -m repro.bench ablation-indexes``
compares the grid with the R-tree.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Sequence, Tuple

from repro.errors import InvalidCoordinateError, InvalidParameterError
from repro.geometry.rectangle import Rect

_Bucket = List[Tuple[Tuple[float, ...], Any]]


class GridIndex:
    """Hash grid of fixed cell side over d-dimensional points.

    The cell table is a plain dict (not a defaultdict): buckets exist iff
    they hold at least one point, and :meth:`delete` drops a bucket the
    moment its last point leaves, so the table cannot grow without bound
    under streaming insert/delete churn.  ``tests/index/test_grid.py``
    pins both properties.
    """

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise InvalidParameterError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self._cells: Dict[Tuple[int, ...], _Bucket] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @classmethod
    def bulk_build(cls, points_items: Sequence[Tuple[Sequence[float], Any]],
                   cell_size: float) -> "GridIndex":
        """Build a grid from ``(point, item)`` pairs, in input order."""
        grid = cls(cell_size)
        for point, item in points_items:
            grid.insert(point, item)
        return grid

    def _cell_of(self, p: Sequence[float]) -> Tuple[int, ...]:
        try:
            return tuple(int(v // self.cell_size) for v in p)
        except (OverflowError, ValueError):
            # inf/NaN, or a finite value whose cell number overflows a
            # float (1e308 with cell side 0.5).
            raise InvalidCoordinateError(
                f"point {tuple(p)!r} has a coordinate the grid cannot "
                f"index at cell side {self.cell_size}"
            ) from None

    def insert(self, point: Sequence[float], item: Any) -> None:
        pt = tuple(float(v) for v in point)
        cell = self._cell_of(pt)
        bucket = self._cells.get(cell)
        if bucket is None:
            bucket = self._cells[cell] = []
        bucket.append((pt, item))
        self._size += 1

    def delete(self, point: Sequence[float], item: Any) -> bool:
        pt = tuple(float(v) for v in point)
        cell = self._cell_of(pt)
        bucket = self._cells.get(cell)
        if not bucket:
            return False
        for i, (p, it) in enumerate(bucket):
            if p == pt and it == item:
                del bucket[i]
                if not bucket:
                    del self._cells[cell]
                self._size -= 1
                return True
        return False

    def search(self, window: Rect) -> List[Any]:
        """Items whose point lies inside ``window`` (closed boundaries)."""
        lo_cell = self._cell_of(window.lo)
        hi_cell = self._cell_of(window.hi)
        out: List[Any] = []
        for cell in _cell_range(lo_cell, hi_cell):
            bucket = self._cells.get(cell)
            if bucket is None:
                continue
            for pt, item in bucket:
                if window.contains_point(pt):
                    out.append(item)
        return out

    def items_in_cell_range(self, window: Rect) -> List[Any]:
        """Raw items from every cell overlapping ``window`` — *without*
        the per-point containment test.

        This is the gather half of the window query; callers that verify
        candidates in bulk (:mod:`repro.kernels`) run the containment and
        distance tests as one vectorized pass over the gathered ids.
        """
        lo_cell = self._cell_of(window.lo)
        hi_cell = self._cell_of(window.hi)
        out: List[Any] = []
        for cell in _cell_range(lo_cell, hi_cell):
            bucket = self._cells.get(cell)
            if bucket:
                for _, item in bucket:
                    out.append(item)
        return out

    def items(self) -> Iterator[Tuple[Tuple[float, ...], Any]]:
        for bucket in self._cells.values():
            yield from bucket


def _cell_range(
    lo: Tuple[int, ...], hi: Tuple[int, ...]
) -> Iterator[Tuple[int, ...]]:
    """All integer cells in the axis-aligned cell box [lo, hi]."""
    if len(lo) == 2:  # common case, unrolled for speed
        for x in range(lo[0], hi[0] + 1):
            for y in range(lo[1], hi[1] + 1):
                yield (x, y)
        return
    ranges = [range(l, h + 1) for l, h in zip(lo, hi)]

    def rec(prefix: Tuple[int, ...], rest: List[range]) -> Iterator[Tuple[int, ...]]:
        if not rest:
            yield prefix
            return
        for v in rest[0]:
            yield from rec(prefix + (v,), rest[1:])

    yield from rec((), ranges)
