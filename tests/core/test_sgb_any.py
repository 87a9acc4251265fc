"""SGB-Any unit tests."""

import pytest

from repro.core.api import sgb_any
from repro.core.sgb_any import SGBAnyOperator
from repro.errors import InvalidParameterError
from repro.stats.chooser import ANY_STRATEGIES

STRATEGIES = list(ANY_STRATEGIES)


class TestParameterValidation:
    def test_negative_eps(self):
        with pytest.raises(InvalidParameterError):
            SGBAnyOperator(eps=-1)

    def test_unknown_strategy(self):
        with pytest.raises(InvalidParameterError):
            SGBAnyOperator(eps=1, strategy="voronoi")

    def test_grid_eps_zero_falls_back_to_naive(self):
        # eps == 0 is the equality-grouping degeneracy; the grid strategy
        # cannot represent it (cell side is eps), so the operator silently
        # takes the naive path instead of raising.
        op = SGBAnyOperator(eps=0, strategy="grid")
        assert op.strategy_name == "all-pairs"

    def test_grid_strategy_itself_rejects_eps_zero(self):
        from repro.core.sgb_any import GridAnyStrategy
        from repro.core.distance import resolve_metric

        with pytest.raises(InvalidParameterError):
            GridAnyStrategy(0.0, resolve_metric("l2"))

    def test_dimension_consistency(self):
        op = SGBAnyOperator(eps=1)
        op.add((1, 2))
        with pytest.raises(InvalidParameterError):
            op.add((1,))

    def test_finalize_twice(self):
        op = SGBAnyOperator(eps=1)
        op.finalize()
        with pytest.raises(RuntimeError):
            op.finalize()


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestGrouping:
    def test_empty(self, strategy):
        assert sgb_any([], eps=1, strategy=strategy).n_groups == 0

    def test_single(self, strategy):
        assert sgb_any([(3, 3)], eps=1, strategy=strategy).labels == [0]

    def test_chain_merges(self, strategy):
        # each consecutive pair within eps; transitively one group
        pts = [(0, 0), (1, 0), (2, 0), (3, 0)]
        res = sgb_any(pts, eps=1.2, metric="l2", strategy=strategy)
        assert res.n_groups == 1

    def test_two_components(self, strategy):
        pts = [(0, 0), (1, 0), (10, 0), (11, 0)]
        res = sgb_any(pts, eps=1.5, strategy=strategy)
        assert res.n_groups == 2
        assert res.group_sizes() == [2, 2]

    def test_late_point_merges_groups(self, strategy):
        # paper Example 2: a5 bridges g1 and g2 -> one group of 5
        pts = [(1, 6), (2, 7), (6, 4), (7, 5), (4, 5.5)]
        res = sgb_any(pts, eps=3, metric="linf", strategy=strategy)
        assert res.group_sizes() == [5]

    def test_l2_vs_linf_differ(self, strategy):
        # diagonal neighbours: within L-inf 1 but L2 distance sqrt(2)
        pts = [(0, 0), (1, 1)]
        assert sgb_any(pts, 1, "linf", strategy).n_groups == 1
        assert sgb_any(pts, 1, "l2", strategy).n_groups == 2

    def test_duplicates(self, strategy):
        res = sgb_any([(2, 2)] * 5 + [(9, 9)], eps=0.5, strategy=strategy)
        assert sorted(res.group_sizes()) == [1, 5]

    def test_labels_in_first_appearance_order(self, strategy):
        pts = [(0, 0), (10, 10), (0.5, 0)]
        res = sgb_any(pts, eps=1, strategy=strategy)
        assert res.labels == [0, 1, 0]


class TestStrategyNames:
    @pytest.mark.parametrize("name,expected", [
        ("all-pairs", "all-pairs"), ("naive", "all-pairs"),
        ("index", "index"), ("rtree", "index"), ("grid", "grid"),
    ])
    def test_aliases(self, name, expected):
        assert SGBAnyOperator(eps=1, strategy=name).strategy_name == expected
