"""Multi-dimensional GROUP AROUND (supervised similarity grouping).

The ICDE 2009 operator family includes grouping *around* user-given
central points; this module lifts that to the multi-dimensional setting of
the main paper: every input point joins the group of its nearest centre
under the chosen metric, optionally only when within a radius ``eps``
(otherwise it is left ungrouped, label ``-1``).

This is one assignment step of K-means with a fixed codebook — but as a
*relational operator*: deterministic, single-pass, and composable with the
rest of the pipeline (the SQL form is
``GROUP BY x, y AROUND ((cx1, cy1), (cx2, cy2), …) [WITHIN r]``).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.api import check_eps, validate_point
from repro.core.distance import Metric, resolve_metric
from repro.core.result import ELIMINATED, GroupingResult
from repro.errors import InvalidParameterError

Point = Tuple[float, ...]


def sgb_around_nd(
    points: Iterable[Sequence[float]],
    centers: Sequence[Sequence[float]],
    eps: Optional[float] = None,
    metric: Union[str, Metric] = "l2",
) -> GroupingResult:
    """Group points around fixed multi-dimensional centres.

    Labels are centre indices; ties go to the earlier-listed centre.  With
    ``eps``, points farther than ``eps`` from every centre get label ``-1``.

    >>> sgb_around_nd([(0, 0.2), (5, 5), (9.4, 0)],
    ...               centers=[(0, 0), (10, 0)], eps=2).labels
    [0, -1, 1]
    """
    m = resolve_metric(metric)
    center_pts: List[Point] = []
    dim = None
    for c in centers:
        center, dim = validate_point(c, dim)
        center_pts.append(center)
    if not center_pts:
        raise InvalidParameterError("GROUP AROUND needs at least one centre")
    if eps is not None:
        eps = check_eps(eps)

    labels: List[int] = []
    pts: List[Point] = []
    for p in points:
        pt, _ = validate_point(p, dim)
        pts.append(pt)
        best = 0
        best_d = m.distance(pt, center_pts[0])
        for i in range(1, len(center_pts)):
            d = m.distance(pt, center_pts[i])
            if d < best_d:
                best_d = d
                best = i
        if eps is not None and best_d > eps:
            labels.append(ELIMINATED)
        else:
            labels.append(best)
    return GroupingResult(labels, pts)
