"""Unit tests for the SGB strategy chooser (repro.stats.chooser)."""

import os

import pytest

from repro.core.sgb_all import INCREMENTAL_STRATEGIES
from repro.stats.chooser import (
    ANY_STRATEGIES,
    AUTO,
    MAX_GRAPH_EDGES,
    SMALL_INPUT,
    choose_parallel,
    choose_strategy,
    resolve_sgb_choice,
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


class TestChooseParallel:
    # SGB-All bounds-checking at 0.2 ε-neighbours: ~1 cost unit per point.
    HEAVY = ("all", "bounds-checking")

    def test_single_cpu_stays_serial(self):
        assert choose_parallel(*self.HEAVY, 100_000, 0.2, 16,
                               cpu_count=1) == 0

    def test_needs_multiple_partitions(self):
        assert choose_parallel(*self.HEAVY, 100_000, 0.2, 1,
                               cpu_count=8) == 0
        assert choose_parallel(*self.HEAVY, 100_000, 0.2, None,
                               cpu_count=8) == 0

    def test_small_input_stays_serial(self):
        assert choose_parallel(*self.HEAVY, 100, 0.2, 16, cpu_count=8) == 0

    def test_capped_by_cpus_and_partitions(self):
        assert choose_parallel(*self.HEAVY, 100_000, 0.2, 4,
                               cpu_count=8) == 4
        assert choose_parallel(*self.HEAVY, 100_000, 0.2, 64,
                               cpu_count=8) == 8

    # The two sides of the measured table in docs/architecture.md
    # (brightkite, ε 0.1, k ≈ 0.2, two cores).
    @pytest.mark.parametrize("n, partitions", [(16_000, 8), (32_000, 16),
                                               (5_000, 8), (64_000, 8)])
    def test_grid_join_never_pays_for_its_pickling(self, n, partitions):
        assert choose_parallel("any", "grid", n, 0.2, partitions,
                               cpu_count=2) == 0

    @pytest.mark.parametrize("n, partitions", [(16_000, 8), (5_000, 8)])
    def test_sgb_all_earns_the_pool(self, n, partitions):
        assert choose_parallel(*self.HEAVY, n, 0.2, partitions,
                               cpu_count=2) == 2

    @pytest.mark.parametrize("n, partitions", [(16_000, 8), (32_000, 16),
                                               (5_000, 8), (64_000, 8)])
    def test_graph_never_pays_for_its_pickling(self, n, partitions):
        assert choose_parallel("all", "graph", n, 0.2, partitions,
                               cpu_count=2) == 0

    # Every spelling the operators' alias tables accept runs the same
    # strategy, so it is priced the same and gets the same pool decision.
    @pytest.mark.parametrize("mode, spellings", [
        ("any", ("all-pairs", "linear", "All-Pairs")),
        ("all", ("bounds-checking", "bounds", " Bounds-Checking ")),
    ], ids=["any", "all"])
    def test_equal_cost_for_equal_strategy(self, mode, spellings):
        costs = {sgb_strategy_cost(mode, s, 3000.0, 0.2) for s in spellings}
        assert len(costs) == 1
        assert costs.pop() < sgb_strategy_cost(mode, "no-such", 3000.0, 0.2)
        pools = {choose_parallel(mode, s, 100_000, 0.2, 16, cpu_count=8)
                 for s in spellings}
        assert len(pools) == 1

    def test_resolved_from_the_chosen_strategy(self):
        args = (0.1, 16_000.0, 0.2, None, 8.0)
        assert resolve_sgb_choice("any", "grid", *args).parallel == 0
        if (os.cpu_count() or 1) > 1:
            assert resolve_sgb_choice(
                "all", "bounds-checking", *args).parallel > 0


class TestResolveSGBChoice:
    def test_flag_override_wins(self):
        choice = resolve_sgb_choice("any", "grid", 0.5, 10_000.0, 2.0,
                                    None, None)
        assert choice.strategy == "grid"
        assert choice.source == "flag"

    def test_no_stats_falls_back_to_default(self):
        choice = resolve_sgb_choice("any", AUTO, 0.5, None, None, None, None)
        assert choice.source == "default"
        assert choice.strategy == "index"

    def test_stats_drive_the_choice(self):
        choice = resolve_sgb_choice("all", AUTO, 0.05, 5000.0, 0.1,
                                    None, None)
        assert choice.source == "stats"
        assert choice.strategy == "graph"
        assert choice.costs  # ranked costs recorded for EXPLAIN / debugging

    def test_configured_parallel_respected(self):
        choice = resolve_sgb_choice("any", AUTO, 0.5, 5000.0, 1.0, 3, 8.0)
        assert choice.parallel == 3
