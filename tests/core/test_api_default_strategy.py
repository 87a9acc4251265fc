"""The array API's default strategy is the chooser's pick.

``sgb_all`` / ``sgb_any`` default to ``strategy="auto"`` and resolve it
with :func:`repro.stats.chooser.choose_strategy` on the validated points,
the ranking the SQL planner uses, so a library caller gets ``grid`` /
``graph`` where SQL would and the all-pairs scan on small inputs.  Every
strategy gives the same labels, so the default only moves time; a
strategy name still wins.
"""

import random

import pytest

from repro.core import api
from repro.stats.chooser import choose_strategy

OPERATORS = {"any": "SGBAnyOperator", "all": "SGBAllOperator"}
ENTRY_POINTS = {"any": api.sgb_any, "all": api.sgb_all}


def _points(n, seed=7, span=10.0, lattice=False):
    rng = random.Random(seed)
    if lattice:  # duplicates, so that ε = 0 still forms groups
        return [(float(rng.randrange(12)), float(rng.randrange(12)))
                for _ in range(n)]
    return [(rng.uniform(0, span), rng.uniform(0, span)) for _ in range(n)]


def _constructed(monkeypatch, mode, *args, **kwargs):
    """The ``strategy`` each call to the mode's operator class received."""
    real = getattr(api, OPERATORS[mode])
    seen = []

    def recording(**op_kwargs):
        seen.append(op_kwargs["strategy"])
        return real(**op_kwargs)

    monkeypatch.setattr(api, OPERATORS[mode], recording)
    ENTRY_POINTS[mode](*args, **kwargs)
    return seen


@pytest.mark.parametrize("mode", ["any", "all"])
class TestDefaultStrategy:
    @pytest.mark.parametrize("n, expected", [
        (64, {"any": "all-pairs", "all": "all-pairs"}),
        (1500, {"any": "grid", "all": "graph"}),
    ], ids=["n64", "n1500"])
    def test_default_is_the_choosers_pick(self, monkeypatch, mode, n,
                                          expected):
        seen = _constructed(monkeypatch, mode, _points(n), 0.1)
        assert seen == [expected[mode]]
        assert seen == [choose_strategy(mode, n, None, 0.1)[0]]

    def test_a_strategy_name_wins(self, monkeypatch, mode):
        seen = _constructed(monkeypatch, mode, _points(1500), 0.1,
                            strategy="index")
        assert seen == ["index"]

    @pytest.mark.parametrize("n, eps, lattice", [
        (300, 0.3, False),
        (1500, 0.1, False),
        (1500, 0.0, True),
    ])
    def test_labels_equal_all_pairs(self, mode, n, eps, lattice):
        pts = _points(n, lattice=lattice)
        fn = ENTRY_POINTS[mode]
        assert fn(pts, eps).labels == fn(pts, eps, strategy="all-pairs").labels

    def test_partitioned_labels_equal_all_pairs(self, mode):
        pts = _points(600)
        keys = [i % 3 for i in range(len(pts))]
        fn = ENTRY_POINTS[mode]
        assert fn(pts, 0.3, partitions=keys).labels == \
            fn(pts, 0.3, strategy="all-pairs", partitions=keys).labels
