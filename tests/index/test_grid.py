"""Uniform grid index tests."""

import random

import pytest

from repro.errors import InvalidParameterError
from repro.geometry.rectangle import Rect
from repro.index.grid import GridIndex


class TestGridIndex:
    def test_invalid_cell_size(self):
        with pytest.raises(InvalidParameterError):
            GridIndex(0)
        with pytest.raises(InvalidParameterError):
            GridIndex(-1)

    def test_insert_search(self):
        g = GridIndex(1.0)
        g.insert((0.5, 0.5), "a")
        g.insert((5.5, 5.5), "b")
        assert g.search(Rect((0, 0), (1, 1))) == ["a"]
        assert sorted(g.search(Rect((0, 0), (10, 10)))) == ["a", "b"]
        assert len(g) == 2

    def test_boundaries_inclusive(self):
        g = GridIndex(1.0)
        g.insert((2.0, 3.0), "edge")
        assert g.search(Rect((0, 0), (2, 3))) == ["edge"]
        assert g.search(Rect((2, 3), (4, 4))) == ["edge"]

    def test_negative_coordinates(self):
        g = GridIndex(1.0)
        g.insert((-1.5, -2.5), "neg")
        assert g.search(Rect((-2, -3), (-1, -2))) == ["neg"]

    def test_delete(self):
        g = GridIndex(1.0)
        g.insert((1, 1), "x")
        assert g.delete((1, 1), "x")
        assert not g.delete((1, 1), "x")
        assert len(g) == 0
        assert g.search(Rect((0, 0), (2, 2))) == []

    def test_delete_wrong_item(self):
        g = GridIndex(1.0)
        g.insert((1, 1), "x")
        assert not g.delete((1, 1), "y")
        assert len(g) == 1

    def test_three_dimensional(self):
        g = GridIndex(1.0)
        g.insert((1, 1, 1), "a")
        g.insert((4, 4, 4), "b")
        assert g.search(Rect((0, 0, 0), (2, 2, 2))) == ["a"]

    def test_items(self):
        g = GridIndex(2.0)
        for i in range(10):
            g.insert((i, i), i)
        assert sorted(item for _, item in g.items()) == list(range(10))

    def test_delete_drops_empty_buckets(self):
        """Regression: insert/delete churn must not leave empty cell
        buckets behind — the cell table tracks live points exactly."""
        g = GridIndex(1.0)
        rng = random.Random(42)
        pts = [(rng.uniform(-50, 50), rng.uniform(-50, 50))
               for _ in range(1000)]
        for i, pt in enumerate(pts):
            g.insert(pt, i)
        occupied = len(g._cells)
        assert occupied > 0
        assert all(g._cells.values()), "no bucket may be empty"
        for i, pt in enumerate(pts):
            assert g.delete(pt, i)
        assert len(g) == 0
        assert g._cells == {}, "churn left empty buckets behind"
        # interleaved churn: the table never holds an empty bucket
        for round_ in range(5):
            for i, pt in enumerate(pts[:100]):
                g.insert(pt, i)
            assert all(g._cells.values())
            for i, pt in enumerate(pts[:100]):
                assert g.delete(pt, i)
            assert g._cells == {}

    def test_misses_do_not_allocate_buckets(self):
        """Probing an absent cell must not grow the table (the old
        defaultdict-backed table allocated a bucket per miss)."""
        g = GridIndex(1.0)
        g.insert((0.5, 0.5), "a")
        assert len(g._cells) == 1
        g.search(Rect((100, 100), (120, 120)))
        assert not g.delete((200.0, 200.0), "ghost")
        assert len(g._cells) == 1

    def test_bulk_build_matches_incremental(self):
        rng = random.Random(3)
        pts = [(rng.uniform(-10, 10), rng.uniform(-10, 10))
               for _ in range(200)]
        items = [(pt, i) for i, pt in enumerate(pts)]
        incremental = GridIndex(0.5)
        for pt, i in items:
            incremental.insert(pt, i)
        bulk = GridIndex.bulk_build(items, cell_size=0.5)
        assert len(bulk) == len(incremental)
        w = Rect((-5, -5), (5, 5))
        assert sorted(bulk.search(w)) == sorted(incremental.search(w))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_fuzz_against_brute_force(self, seed):
        rng = random.Random(seed)
        g = GridIndex(0.7)
        live = []
        for i in range(300):
            if live and rng.random() < 0.3:
                pt, item = live.pop(rng.randrange(len(live)))
                assert g.delete(pt, item)
            else:
                pt = (rng.uniform(-20, 20), rng.uniform(-20, 20))
                g.insert(pt, i)
                live.append((pt, i))
            if i % 50 == 0:
                w = Rect((rng.uniform(-20, 10), rng.uniform(-20, 10)),
                         (rng.uniform(10, 20), rng.uniform(10, 20)))
                got = sorted(g.search(w))
                want = sorted(
                    item for pt, item in live if w.contains_point(pt)
                )
                assert got == want
