"""Computational-geometry substrate: rectangles, convex hulls, polygons."""

from repro.geometry.convex_hull import (
    IncrementalHull,
    convex_hull,
    diameter,
    farthest_vertex,
    point_in_convex_polygon,
)
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect, eps_all_rect, probe_window

__all__ = [
    "Rect",
    "eps_all_rect",
    "probe_window",
    "convex_hull",
    "point_in_convex_polygon",
    "farthest_vertex",
    "diameter",
    "IncrementalHull",
    "Polygon",
]
