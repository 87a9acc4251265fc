"""Unit tests for the SGB strategy chooser (repro.stats.chooser)."""

import pytest

from repro.core.sgb_all import INCREMENTAL_STRATEGIES
from repro.stats.chooser import (
    ANY_STRATEGIES,
    MAX_GRAPH_EDGES,
    SMALL_INPUT,
    choose_strategy,
)
from repro.stats.model import sgb_strategy_cost


class TestChooseStrategy:
    def test_small_input_prefers_scan(self):
        strategy, reason, costs = choose_strategy("any", SMALL_INPUT, 4.0, 0.5)
        assert strategy == "all-pairs"
        assert "scan constant" in reason

    def test_sparse_any_prefers_grid(self):
        strategy, _, costs = choose_strategy("any", 5000, 0.1, 0.05)
        assert strategy == "grid"
        assert costs["grid"] < costs["all-pairs"] < costs["index"]

    def test_sparse_all_prefers_bounds_checking(self):
        # Of the paper's three, the one rectangle test per group is the
        # cheapest; the ε-graph beats all three (below).
        strategy, _, costs = choose_strategy("all", 5000, 0.1, 0.05)
        assert min(INCREMENTAL_STRATEGIES, key=costs.get) == "bounds-checking"
        assert costs["bounds-checking"] < costs["all-pairs"]

    def test_dense_all_prefers_bounds_checking(self):
        # Past the edge bound the ε-graph is not ranked at all.
        k = MAX_GRAPH_EDGES / 5000 + 1.0
        strategy, _, costs = choose_strategy("all", 5000, k, 1.5)
        assert strategy == "bounds-checking"
        assert "graph" not in costs

    def test_sparse_all_prefers_graph(self):
        # checkin_all's shape: 1500 check-ins, 0.6 ε-neighbours a point.
        for k in (0.0, 0.6):
            strategy, _, costs = choose_strategy("all", 1500, k, 0.1)
            assert strategy == "graph"
            assert costs["graph"] < costs["bounds-checking"] < costs["index"]

    def test_edge_bound_drops_graph(self):
        # Large enough that the bound, not density, decides: just below
        # it the ε-graph is the cheapest strategy by far.
        n = 100_000
        below, _, _ = choose_strategy("all", n, MAX_GRAPH_EDGES / n, 0.5)
        above, _, costs = choose_strategy("all", n,
                                          MAX_GRAPH_EDGES / n + 1.0, 0.5)
        assert below == "graph"
        assert above != "graph" and "graph" not in costs

    def test_unknown_density_bounds_graph_edges_by_every_pair(self):
        # Without statistics the cost model assumes k = 16, but 4000
        # uniform points in the unit square at ε 0.2 have ~500
        # ε-neighbours each: the guard must assume n·(n−1) edges.
        strategy, _, costs = choose_strategy("all", 4000, None, 0.2)
        assert strategy != "graph" and "graph" not in costs
        # n·(n−1) first exceeds the bound above n = 1000.
        assert choose_strategy("all", 1000, None, 0.2)[0] == "graph"
        assert "graph" not in choose_strategy("all", 1001, None, 0.2)[2]

    def test_zero_eps_all_never_picks_graph(self):
        strategy, _, costs = choose_strategy("all", 1500, 0.0, 0.0)
        assert strategy != "graph"
        assert "graph" not in costs

    def test_zero_eps_any_never_picks_grid(self):
        # eps=0 degenerates to equality grouping; the grid has no cell size
        strategy, _, costs = choose_strategy("any", 5000, 0.0, 0.0)
        assert strategy != "grid"
        assert "grid" not in costs

    def test_no_density_uses_moderate_default(self):
        strategy, _, _ = choose_strategy("any", 5000, None, 0.5)
        assert strategy in ANY_STRATEGIES

    def test_mid_density_large_n_prefers_grid(self):
        strategy, _, _ = choose_strategy("any", 4000, 24.0, 0.3)
        assert strategy == "grid"

    # Every spelling the operators' alias tables accept runs the same
    # strategy, so it is priced the same.
    @pytest.mark.parametrize("mode, spellings", [
        ("any", ("all-pairs", "linear", "All-Pairs")),
        ("all", ("bounds-checking", "bounds", " Bounds-Checking ")),
    ], ids=["any", "all"])
    def test_equal_cost_for_equal_strategy(self, mode, spellings):
        costs = {sgb_strategy_cost(mode, s, 3000.0, 0.2) for s in spellings}
        assert len(costs) == 1
        assert costs.pop() < sgb_strategy_cost(mode, "no-such", 3000.0, 0.2)
