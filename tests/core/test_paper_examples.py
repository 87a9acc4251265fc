"""The paper's worked examples, reproduced exactly (Figures 1, 2, 4, 5)."""

import pytest

from repro.core.api import sgb_all, sgb_any
from repro.core.distance import L2, LINF
from repro.core.groups import Group
from repro.geometry.rectangle import Rect
from repro.stats.chooser import ALL_STRATEGIES, ANY_STRATEGIES

# Figure 1's points (read off the 6x6 grid): a-e form a clique under
# L-inf <= 3; c also cliques with f and g.
FIG1_POINTS = {
    "a": (1, 5), "b": (2, 4), "c": (3, 3), "d": (2, 2), "e": (3, 5),
    "f": (5, 2), "g": (6, 1),
}
FIG1B_EXTRA = {"h": (6, 4)}  # fig 1b adds h, chained to the rest


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
class TestFigure1a:
    def test_clique_groups(self, strategy):
        names = list(FIG1_POINTS)
        pts = list(FIG1_POINTS.values())
        res = sgb_all(pts, eps=3, metric="linf", on_overlap="join-any",
                      strategy=strategy, tiebreak="first")
        groups = {
            frozenset(names[i] for i in members)
            for members in res.groups().values()
        }
        # c qualifies for both cliques; with deterministic JOIN-ANY it stays
        # with the first group, so {a-e} and {f,g} are reported.
        assert groups == {frozenset("abcde"), frozenset("fg")}


@pytest.mark.parametrize("strategy", ANY_STRATEGIES)
class TestFigure1b:
    def test_all_points_one_group(self, strategy):
        pts = list(FIG1_POINTS.values()) + list(FIG1B_EXTRA.values())
        res = sgb_any(pts, eps=3, metric="linf", strategy=strategy)
        assert res.n_groups == 1
        assert res.group_sizes() == [8]


# Example 1 / Figure 2: stream a1..a5; a5 arrives last, within eps of both
# existing groups {a1,a2} and {a3,a4}.
EXAMPLE1_STREAM = [(1, 6), (2, 7), (6, 4), (7, 5), (4, 5.5)]


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
class TestExample1OverlapSemantics:
    def test_join_any_counts(self, strategy):
        res = sgb_all(EXAMPLE1_STREAM, eps=3, metric="linf",
                      on_overlap="join-any", strategy=strategy,
                      tiebreak="first")
        assert sorted(res.group_sizes(), reverse=True) == [3, 2]

    def test_eliminate_counts(self, strategy):
        res = sgb_all(EXAMPLE1_STREAM, eps=3, metric="linf",
                      on_overlap="eliminate", strategy=strategy)
        assert sorted(res.group_sizes(), reverse=True) == [2, 2]
        assert res.eliminated_indices() == [4]

    def test_form_new_group_counts(self, strategy):
        res = sgb_all(EXAMPLE1_STREAM, eps=3, metric="linf",
                      on_overlap="form-new-group", strategy=strategy)
        assert sorted(res.group_sizes(), reverse=True) == [2, 2, 1]
        # a5 sits alone in the newly formed group
        assert res.groups()[res.labels[4]] == [4]


@pytest.mark.parametrize("strategy", ANY_STRATEGIES)
class TestExample2:
    def test_sgb_any_merges_to_five(self, strategy):
        res = sgb_any(EXAMPLE1_STREAM, eps=3, metric="linf",
                      strategy=strategy)
        assert res.group_sizes() == [5]


class TestFigure4OverlapProcessing:
    """Figure 4 / 6 scenario: point x is a candidate for two groups and
    partially overlaps a third (through a3), with a fourth far away."""

    # arrival order: a1, a2, a3, b1, b2, c1, c2, c3, d1, d2, x;  eps=3 L-inf
    POINTS = {
        "a1": (0, 6), "a2": (1, 6), "a3": (0, 3),
        "b1": (-3, -1), "b2": (-2, -2),
        "c1": (3, -1), "c2": (2, -3), "c3": (3, -2),
        "d1": (30, 30), "d2": (31, 31),
        "x": (0, 0),
    }

    def run(self, clause, strategy):
        from repro.core.api import sgb_all

        names = list(self.POINTS)
        res = sgb_all(self.POINTS.values(), eps=3, metric="linf",
                      on_overlap=clause, strategy=strategy,
                      tiebreak="first")
        groups = {
            frozenset(names[i] for i in members)
            for members in res.groups().values()
        }
        eliminated = {names[i] for i in res.eliminated_indices()}
        return groups, eliminated

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_eliminate_drops_x_and_the_overlapped_member(self, strategy):
        groups, eliminated = self.run("eliminate", strategy)
        # x is dropped (two candidate groups); a3, the member of g1 within
        # eps of x, is deleted by ProcessOverlap (the paper's Figure 4)
        assert eliminated == {"x", "a3"}
        assert groups == {
            frozenset({"a1", "a2"}), frozenset({"b1", "b2"}),
            frozenset({"c1", "c2", "c3"}), frozenset({"d1", "d2"}),
        }

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_form_new_group_regroups_the_deferred_points(self, strategy):
        groups, eliminated = self.run("form-new-group", strategy)
        assert not eliminated
        # x and a3 both land in S' and regroup together (within eps)
        assert frozenset({"x", "a3"}) in groups
        assert frozenset({"a1", "a2"}) in groups

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_join_any_leaves_other_groups_untouched(self, strategy):
        groups, eliminated = self.run("join-any", strategy)
        assert not eliminated
        # x joined exactly one of its two candidate groups; g1 intact
        assert frozenset({"a1", "a2", "a3"}) in groups
        assert (frozenset({"b1", "b2", "x"}) in groups
                or frozenset({"c1", "c2", "c3", "x"}) in groups)


class TestFigure5EpsAllRectangle:
    """Figure 5c-5e: the rectangle's evolution as a1, a2, a3 join."""

    def test_rectangle_shrinks_as_documented(self):
        g = Group(0, eps=2, metric=LINF, use_hull=False)
        g.add(0, (3.0, 3.0))  # a1: rect is 2eps x 2eps centred at a1
        assert g.eps_rect == Rect((1, 1), (5, 5))
        g.add(1, (4.0, 4.0))  # a2: intersection of the two eps-boxes
        assert g.eps_rect == Rect((2, 2), (5, 5))
        g.add(2, (3.0, 4.0))  # a3: shrinks further toward eps x eps floor
        assert g.eps_rect == Rect((2, 2), (5, 5))

    def test_rect_never_smaller_than_eps_by_eps(self):
        g = Group(0, eps=1, metric=LINF, use_hull=False)
        # a maximal spread clique: corners of a 1x1 square
        for i, p in enumerate([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0),
                               (1.0, 1.0)]):
            g.add(i, p)
        width = g.eps_rect.hi[0] - g.eps_rect.lo[0]
        height = g.eps_rect.hi[1] - g.eps_rect.lo[1]
        assert width == pytest.approx(1.0)  # exactly eps x eps
        assert height == pytest.approx(1.0)


class TestFigure7L2FalsePositive:
    """Figure 7b: rectangle corners are false positives under L2."""

    def test_corner_point_rejected(self):
        g = Group(0, eps=2, metric=L2, use_hull=True)
        g.add(0, (3.0, 3.0))
        corner = (4.9, 4.9)  # inside the eps-box, outside the eps-circle
        assert g.eps_rect.contains_point(corner)
        assert not g.accepts(corner)

    def test_operator_level_consistency(self):
        # one point at origin, probes around the circle boundary
        pts = [(0.0, 0.0), (1.9, 1.9)]  # L2 distance ~2.69 > 2
        res = sgb_all(pts, eps=2, metric="l2", strategy="index")
        assert res.n_groups == 2
        res_linf = sgb_all(pts, eps=2, metric="linf", strategy="index")
        assert res_linf.n_groups == 1
