"""Average-case cost model of the SGB-All strategies (paper Appendix).

The appendix derives per-strategy running times in terms of the input size
``n``, the number of live groups ``|G|``, the expected group size ``k``,
and — for the overlap-handling clauses — the candidate/overlap set sizes.
This module encodes those closed forms so experiments can print *predicted*
operation counts next to the measured ones (``CountingMetric`` /
``fit_loglog_slope``), and tests can assert the qualitative claims
(orderings and growth exponents) directly from the model.

The model counts the dominant primitive of each strategy:

* All-Pairs — similarity-predicate (distance) evaluations;
* Bounds-Checking — rectangle tests (one ε-All containment test per live
  group per point);
* on-the-fly Index — R-tree node inspections (≈ fanout · log_f |G| per
  window query).

These are different primitives with different constants, which is why the
paper reports them as asymptotic classes rather than a single unit; the
model does the same.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.errors import InvalidParameterError


class CostModel:
    """Predicted dominant-operation counts for one SGB-All run.

    Parameters
    ----------
    n:
        Number of input points.
    n_groups:
        Expected number of live groups ``|G|`` (use the measured group
        count of a comparable run, or :func:`expected_groups_uniform`).
    rtree_fanout:
        The on-the-fly index's node fanout ``f``.
    """

    def __init__(self, n: int, n_groups: int, rtree_fanout: int = 8):
        if n < 0 or n_groups < 0:
            raise InvalidParameterError("n and n_groups must be >= 0")
        if n_groups > n:
            raise InvalidParameterError("cannot have more groups than points")
        self.n = n
        self.n_groups = n_groups
        self.fanout = max(2, rtree_fanout)

    # ------------------------------------------------------------------
    @property
    def group_size(self) -> float:
        """Expected members per group, k = n / |G| (appendix notation)."""
        return self.n / self.n_groups if self.n_groups else 0.0

    def all_pairs_distance_evaluations(self) -> float:
        """Naive FindCloseGroups inspects every previously seen point:
        sum_{i<n} i = n(n-1)/2 — the O(n²) row of Table 1."""
        return self.n * (self.n - 1) / 2.0

    def bounds_checking_rectangle_tests(self) -> float:
        """One ε-All rectangle containment test per live group per point —
        the O(n·|G|) row.  |G| grows over the run; with groups appearing
        roughly uniformly the expected live count is |G|/2 per point."""
        return self.n * self.n_groups / 2.0

    def indexed_node_inspections(self) -> float:
        """A window query touches ≈ f · log_f(|G|) node entries — the
        O(n·log |G|) row."""
        if self.n_groups <= 1:
            return float(self.n)
        per_query = self.fanout * math.log(self.n_groups, self.fanout)
        return self.n * per_query

    def form_new_group_factor(self, recursion_depth: int) -> float:
        """FORM-NEW-GROUP repeats the pass over the deferred set; the
        appendix bounds the total by the m-fold sum (O(m·n·log|G|) for the
        indexed strategy).  Returned as a multiplier on the base cost."""
        if recursion_depth < 0:
            raise InvalidParameterError("recursion depth must be >= 0")
        return 1.0 + recursion_depth

    def summary(self) -> Dict[str, float]:
        return {
            "all-pairs (distance evals)": self.all_pairs_distance_evaluations(),
            "bounds-checking (rect tests)": self.bounds_checking_rectangle_tests(),
            "index (node inspections)": self.indexed_node_inspections(),
        }


def expected_groups_uniform(n: int, eps: float, span: float,
                            dim: int = 2) -> int:
    """Rough |G| estimate for SGB-All on uniform data in a ``span``-sided
    cube: a clique fits in an ε-sided cell, so at saturation there are about
    ``(span/eps)^dim`` groups; with few points, every point is its own
    group.  This matches the measured Figure-9 group counts within a small
    factor — good enough for ordering predictions, which is all the model
    promises."""
    if eps <= 0 or span <= 0:
        raise InvalidParameterError("eps and span must be positive")
    cells = (span / eps) ** dim
    return max(1, min(n, int(round(cells))))


def predicted_growth_exponent(strategy: str) -> float:
    """The appendix's asymptotic exponent in n at fixed ε on uniform data
    (where |G| grows linearly in n until saturation): All-Pairs is
    quadratic, Bounds-Checking follows n·|G| ≈ n·min(n, cells), the index
    is n·log|G| ≈ near-linear.  ``graph`` is not the paper's: one probe a
    point plus one tally per placed ε-neighbour, linear while the average
    neighbour count stays bounded."""
    table = {
        "all-pairs": 2.0,
        "bounds-checking": 2.0,  # pre-saturation, |G| ~ n
        "index": 1.0,
        "graph": 1.0,
    }
    try:
        return table[strategy]
    except KeyError:
        raise InvalidParameterError(
            f"unknown strategy {strategy!r}"
        ) from None
