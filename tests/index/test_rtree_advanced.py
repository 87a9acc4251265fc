"""R-tree bulk loading (STR) and k-NN search tests."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rectangle import Rect
from repro.index.rtree import RTree

coord = st.floats(0, 100, allow_nan=False)


def point_entries(points):
    return [(Rect.from_point(p), i) for i, p in enumerate(points)]


class TestBulkLoad:
    def test_empty(self):
        t = RTree.bulk_load([])
        assert len(t) == 0
        assert t.search(Rect((0, 0), (100, 100))) == []

    def test_single(self):
        t = RTree.bulk_load(point_entries([(5, 5)]))
        assert t.search(Rect((0, 0), (10, 10))) == [0]

    def test_queries_match_incremental(self):
        rng = random.Random(1)
        points = [(rng.uniform(0, 100), rng.uniform(0, 100))
                  for _ in range(500)]
        bulk = RTree.bulk_load(point_entries(points), max_entries=8)
        incremental = RTree(max_entries=8)
        for rect, i in point_entries(points):
            incremental.insert(rect, i)
        for _ in range(20):
            x, y = rng.uniform(0, 80), rng.uniform(0, 80)
            window = Rect((x, y), (x + 15, y + 15))
            assert sorted(bulk.search(window)) == sorted(
                incremental.search(window)
            )

    def test_invariants_and_packing(self):
        points = [(i % 40, i // 40) for i in range(800)]
        t = RTree.bulk_load(point_entries(points), max_entries=8)
        t.check_invariants()
        assert len(t) == 800
        # packed trees are shallower than (or equal to) incremental ones
        inc = RTree(max_entries=8)
        for rect, i in point_entries(points):
            inc.insert(rect, i)
        assert t.height() <= inc.height()

    def test_inserts_after_bulk_load(self):
        t = RTree.bulk_load(point_entries([(1, 1), (2, 2), (3, 3)]))
        t.insert(Rect.from_point((50, 50)), 99)
        assert 99 in t.search(Rect((49, 49), (51, 51)))
        t.check_invariants()

    def test_deletes_after_bulk_load(self):
        points = [(float(i), 0.0) for i in range(50)]
        t = RTree.bulk_load(point_entries(points), max_entries=4)
        assert t.delete(Rect.from_point((10.0, 0.0)), 10)
        assert 10 not in t.search(Rect((0, 0), (100, 1)))
        assert len(t) == 49
        t.check_invariants()

    @settings(max_examples=30, deadline=None)
    @given(points=st.lists(st.tuples(coord, coord), max_size=120),
           window=st.tuples(coord, coord))
    def test_bulk_load_property(self, points, window):
        t = RTree.bulk_load(point_entries(points), max_entries=6)
        w = Rect(window, (window[0] + 20, window[1] + 20))
        got = sorted(t.search(w))
        want = sorted(i for i, p in enumerate(points)
                      if w.contains_point(p))
        assert got == want



class TestNearest:
    def test_empty_tree(self):
        assert RTree().nearest((0, 0), k=3) == []

    def test_k_zero(self):
        t = RTree.bulk_load(point_entries([(1, 1)]))
        assert t.nearest((0, 0), k=0) == []

    def test_single_nearest(self):
        t = RTree.bulk_load(point_entries([(0, 0), (5, 5), (10, 10)]))
        [(d, item)] = t.nearest((6, 6), k=1)
        assert item == 1
        assert d == pytest.approx(math.sqrt(2))

    def test_k_larger_than_size(self):
        t = RTree.bulk_load(point_entries([(0, 0), (1, 0)]))
        results = t.nearest((0, 0), k=10)
        assert [item for _, item in results] == [0, 1]

    def test_distances_ascending(self):
        rng = random.Random(2)
        points = [(rng.uniform(0, 50), rng.uniform(0, 50))
                  for _ in range(200)]
        t = RTree.bulk_load(point_entries(points))
        results = t.nearest((25, 25), k=10)
        dists = [d for d, _ in results]
        assert dists == sorted(dists)

    @settings(max_examples=30, deadline=None)
    @given(points=st.lists(st.tuples(coord, coord), min_size=1,
                           max_size=80),
           probe=st.tuples(coord, coord), k=st.integers(1, 10))
    def test_matches_brute_force(self, points, probe, k):
        t = RTree.bulk_load(point_entries(points), max_entries=5)
        got = t.nearest(probe, k=k)
        want = sorted(
            (math.dist(probe, p), i) for i, p in enumerate(points)
        )[:k]
        assert len(got) == min(k, len(points))
        for (gd, _), (wd, _) in zip(got, want):
            assert gd == pytest.approx(wd)
