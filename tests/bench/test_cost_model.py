"""Cost-model tests: internal consistency, and agreement with measured
operation counts / growth exponents."""

import pytest

from repro.bench.cost_model import (
    CostModel,
    expected_groups_uniform,
    predicted_growth_exponent,
)
from repro.bench.experiments import uniform_points
from repro.bench.harness import fit_loglog_slope
from repro.core.sgb_all import SGBAllOperator
from repro.errors import InvalidParameterError


class TestModelBasics:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            CostModel(-1, 0)
        with pytest.raises(InvalidParameterError):
            CostModel(10, 11)
        with pytest.raises(InvalidParameterError):
            CostModel(10, 5).form_new_group_factor(-1)
        with pytest.raises(InvalidParameterError):
            expected_groups_uniform(10, 0, 1)
        with pytest.raises(InvalidParameterError):
            predicted_growth_exponent("btree")

    def test_group_size(self):
        assert CostModel(100, 20).group_size == 5.0
        assert CostModel(100, 0).group_size == 0.0

    def test_all_pairs_formula(self):
        assert CostModel(10, 5).all_pairs_distance_evaluations() == 45

    def test_strategy_ordering(self):
        """The model must predict the paper's ordering: index < bounds <
        all-pairs, for any realistic (n, |G|)."""
        for n, g in [(100, 50), (1000, 400), (10000, 3000)]:
            m = CostModel(n, g)
            assert (m.indexed_node_inspections()
                    < m.bounds_checking_rectangle_tests()
                    < m.all_pairs_distance_evaluations())

    def test_monotone_in_n(self):
        small, big = CostModel(500, 100), CostModel(5000, 100)
        assert (big.all_pairs_distance_evaluations()
                > small.all_pairs_distance_evaluations())
        assert (big.indexed_node_inspections()
                > small.indexed_node_inspections())

    def test_form_new_group_multiplier(self):
        m = CostModel(100, 10)
        assert m.form_new_group_factor(0) == 1.0
        assert m.form_new_group_factor(3) == 4.0

    def test_summary_keys(self):
        s = CostModel(100, 10).summary()
        assert len(s) == 3 and all(v > 0 for v in s.values())


class TestAgainstMeasurement:
    def test_all_pairs_prediction_matches_counting_metric(self):
        """Under ELIMINATE the naive scan cannot early-exit on candidates
        it keeps verifying, so the measured distance-evaluation count must
        sit within a small factor of n(n-1)/2."""
        from repro.core.sgb_all import SGBAllOperator
        from tests.conftest import random_points

        pts = random_points(200, seed=11)
        op = SGBAllOperator(0.5, "l2", "eliminate", "all-pairs",
                            tiebreak="first")
        op.add_many(pts).finalize()
        predicted = CostModel(len(pts), 1).all_pairs_distance_evaluations()
        measured = op.stats.distance_computations
        assert predicted / 3 <= measured <= predicted * 1.01

    def test_expected_groups_tracks_measured(self):
        """The uniform |G| estimate must land within a small factor of the
        group counts SGB-All actually produces."""
        from repro.core.api import sgb_all
        from tests.conftest import random_points

        span = 10.0
        pts = random_points(800, seed=12, span=span)
        for eps in (0.5, 1.0, 2.0):
            measured = sgb_all(pts, eps, "linf", "join-any", "index",
                               tiebreak="first").n_groups
            predicted = expected_groups_uniform(len(pts), eps, span)
            assert predicted / 4 <= measured <= predicted * 4

    def test_predicted_exponents_match_measured_slopes(self):
        """Growth exponents fitted on exact work counts over Table 1's
        sweep (uniform points, ε = 0.05, L∞, every ON-OVERLAP clause) must
        sit on the model's asymptotic classes.  Each strategy is counted
        in its own dominant primitive (module docstring of the model):
        predicate evaluations for all-pairs, rectangle tests — groups
        scanned — for bounds-checking, window queries plus the entries
        they return for the index, probes plus neighbours tallied for the
        ε-graph."""
        primitive = {
            "all-pairs": ("distance_computations",),
            "bounds-checking": ("candidates",),
            "index": ("index_probes", "candidates"),
            "graph": ("index_probes", "candidates"),
        }
        sizes = (200, 400, 800)
        inputs = [uniform_points(n) for n in sizes]
        for strategy, counters in primitive.items():
            for clause in ("join-any", "eliminate", "form-new-group"):
                work = []
                for points in inputs:
                    op = SGBAllOperator(0.05, "linf", clause, strategy,
                                        tiebreak="first")
                    op.add_many(points).finalize()
                    work.append(sum(getattr(op.stats, c) for c in counters))
                assert fit_loglog_slope(sizes, work) == pytest.approx(
                    predicted_growth_exponent(strategy), abs=0.05
                ), (strategy, clause, work)
