"""One-dimensional Similarity Group-By (the ICDE 2009 predecessor operators).

The multi-dimensional SGB paper builds on the original Similarity Group-By
operators (Silva, Aref et al., ICDE 2009 / SimDB), which group a *single*
numeric attribute.  We implement both of its grouping flavours so the
library covers the whole operator family:

* **Unsupervised segmentation** (``GROUP BY col MAXIMUM-ELEMENT-SEPARATION
  s [MAXIMUM-GROUP-DIAMETER d]``): sort the values; a new group starts when
  the gap to the previous value exceeds ``s``, or when adding the value
  would stretch the group's diameter beyond ``d``.
* **Supervised GROUP AROUND** (``GROUP BY col AROUND (c1, c2, …)
  [MAXIMUM-GROUP-DIAMETER 2r]``): each value joins the group of its nearest
  central point, unless it is farther than ``r`` from every centre, in
  which case it is left ungrouped (label ``-1``).

Both return a :class:`~repro.core.result.GroupingResult` with labels in
*input* order, so they compose with the rest of the library.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.api import validated_points
from repro.core.around import sgb_around_nd
from repro.core.result import ELIMINATED, GroupingResult
from repro.errors import InvalidParameterError


def sgb_segment(
    values: Iterable[float],
    max_separation: float,
    max_diameter: Optional[float] = None,
) -> GroupingResult:
    """Unsupervised 1-D similarity grouping.

    Groups are maximal runs of the sorted values in which consecutive
    elements are at most ``max_separation`` apart and (when given) the
    run's total spread stays within ``max_diameter``.

    >>> sgb_segment([1, 2, 8, 9, 2.5], max_separation=1).group_sizes()
    [3, 2]
    """
    if max_separation < 0:
        raise InvalidParameterError("max_separation must be non-negative")
    if max_diameter is not None and max_diameter < 0:
        raise InvalidParameterError("max_diameter must be non-negative")

    points = list(validated_points((v,) for v in values))
    if not points:
        return GroupingResult([], [])
    items = sorted((p[0], i) for i, p in enumerate(points))
    labels = [ELIMINATED] * len(points)

    group = 0
    group_start = prev = items[0][0]
    for value, original_index in items:
        too_far = value - prev > max_separation
        too_wide = (
            max_diameter is not None and value - group_start > max_diameter
        )
        if too_far or too_wide:
            group += 1
            group_start = value
        labels[original_index] = group
        prev = value
    return GroupingResult(labels, points)


def sgb_around(
    values: Iterable[float],
    centers: Sequence[float],
    max_diameter: Optional[float] = None,
) -> GroupingResult:
    """Supervised 1-D grouping around central points.

    ``max_diameter`` bounds each group's total width: a value joins its
    nearest centre only if it lies within ``max_diameter / 2`` of it;
    otherwise it is left out (label ``-1``).  Ties go to the
    earlier-listed centre.

    >>> sgb_around([1, 4, 6, 40], centers=[0, 5], max_diameter=4).labels
    [0, 1, 1, -1]
    """
    if max_diameter is not None and max_diameter < 0:
        raise InvalidParameterError("max_diameter must be non-negative")
    # The d = 1 case of the N-D operator: every metric's 1-D distance is
    # abs(v - c), and linf computes exactly that.
    return sgb_around_nd(
        ((v,) for v in values),
        [(c,) for c in centers],
        eps=None if max_diameter is None else max_diameter / 2.0,
        metric="linf",
    )
