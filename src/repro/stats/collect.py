"""The ANALYZE pass: per-table / per-column statistics.

:func:`analyze_table` computes a :class:`TableStats` for a heap table —
row count, and for every column the null count, number of distinct
values, min/max, and (for numeric and date columns) a small equi-width
:class:`DensityHistogram` over the value range.  The histogram doubles as
the *spatial density* statistic the SGB strategy chooser needs: its
:meth:`~DensityHistogram.eps_fraction` answers "what fraction of the rows
lies within ``ε`` of a random row along this dimension?", which under an
independence assumption multiplies across grouping columns into the
expected ε-neighbourhood occupancy.

The module only duck-types tables (``.rows`` + ``.schema``) so it stays
importable from :mod:`repro.engine.table` without a cycle.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default bucket count for column histograms (PostgreSQL default is 100;
#: the chooser only needs coarse density, so stay small and cheap).
DEFAULT_BUCKETS = 32


def column_coordinate(value: Any) -> Optional[float]:
    """Numeric coordinate of a column value, or None when it has none.

    Mirrors the SGB executor's coordinate mapping: dates count in
    ordinal days, bools are not numeric.
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, _dt.date):
        return float(value.toordinal())
    return None


def _hashable(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    return value


@dataclass
class DensityHistogram:
    """Equi-width histogram over a column's numeric coordinates."""

    lo: float
    hi: float
    counts: List[int]

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def width(self) -> float:
        if not self.counts:
            return 0.0
        return (self.hi - self.lo) / len(self.counts)

    def fraction_between(self, lo: Optional[float],
                         hi: Optional[float]) -> float:
        """Fraction of rows with coordinate in ``[lo, hi]`` (None = open)."""
        n = self.n
        if n == 0:
            return 0.0
        qlo = self.lo if lo is None else lo
        qhi = self.hi if hi is None else hi
        if qhi < qlo:
            return 0.0
        w = self.width
        if w <= 0.0:  # all values identical
            return 1.0 if qlo <= self.lo <= qhi else 0.0
        total = 0.0
        for i, count in enumerate(self.counts):
            blo = self.lo + i * w
            bhi = blo + w
            overlap = min(bhi, qhi) - max(blo, qlo)
            if overlap <= 0:
                continue
            total += count * min(1.0, overlap / w)
        return min(1.0, total / n)

    def eps_fraction(self, eps: float) -> float:
        """Expected fraction of rows within ``±eps`` of a *random row*
        along this dimension (density-weighted, not uniform-weighted:
        crowded buckets count more, which is what makes skewed data look
        dense to the chooser)."""
        n = self.n
        if n == 0:
            return 0.0
        if eps < 0:
            return 0.0
        w = self.width
        if w <= 0.0:  # all values identical: everything within any eps
            return 1.0
        nb = len(self.counts)
        total = 0.0
        for i, count in enumerate(self.counts):
            if not count:
                continue
            center = self.lo + (i + 0.5) * w
            qlo, qhi = center - eps, center + eps
            # mass within [qlo, qhi], buckets assumed uniform inside
            mass = 0.0
            first = max(0, int((qlo - self.lo) // w))
            last = min(nb - 1, int((qhi - self.lo) // w))
            for j in range(first, last + 1):
                blo = self.lo + j * w
                overlap = min(blo + w, qhi) - max(blo, qlo)
                if overlap > 0:
                    mass += self.counts[j] * min(1.0, overlap / w)
            total += count * min(1.0, mass / n)
        return min(1.0, total / n)


@dataclass
class ColumnStats:
    """Statistics for one column of an analyzed table."""

    name: str
    type: str
    n_rows: int
    null_count: int
    ndv: int
    min_value: Any = None
    max_value: Any = None
    histogram: Optional[DensityHistogram] = None

    @property
    def non_null(self) -> int:
        return self.n_rows - self.null_count

    @property
    def null_fraction(self) -> float:
        if self.n_rows == 0:
            return 0.0
        return self.null_count / self.n_rows

    def eq_selectivity(self) -> float:
        """Selectivity of ``col = constant`` (uniform over distinct values)."""
        if self.n_rows == 0 or self.ndv == 0:
            return 0.0
        return (1.0 - self.null_fraction) / self.ndv

    def range_selectivity(self, lo: Optional[float],
                          hi: Optional[float]) -> Optional[float]:
        """Selectivity of a range predicate, from the histogram; None when
        the column has no histogram (non-numeric)."""
        if self.histogram is None:
            return None
        return self.histogram.fraction_between(lo, hi) * (
            1.0 - self.null_fraction
        )


@dataclass
class TableStats:
    """The ANALYZE result for one table."""

    table: str
    row_count: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name.lower())

    def summary_lines(self) -> List[str]:
        """Human-readable rendering (the shell's ``\\stats`` output)."""
        lines = [f"{self.table}: {self.row_count} rows"]
        for col in self.columns.values():
            parts = [f"ndv={col.ndv}", f"nulls={col.null_count}"]
            if col.min_value is not None:
                parts.append(f"min={col.min_value!r}")
            if col.max_value is not None:
                parts.append(f"max={col.max_value!r}")
            if col.histogram is not None:
                parts.append(f"hist={len(col.histogram.counts)} buckets")
            lines.append(f"  {col.name} ({col.type}): " + " ".join(parts))
        return lines


def _build_histogram(coords: Sequence[float],
                     buckets: int) -> DensityHistogram:
    lo, hi = min(coords), max(coords)
    # A denormal spread overflows the scale to inf, and a spread past the
    # float range (-1.7e308 to 1e308) overflows itself to inf and the
    # scale to 0; either way ``(c - lo) * scale`` can be NaN.  Such a
    # column is one bucket: the histogram gives up, not the statement.
    spread = hi - lo
    if not (0.0 < spread < math.inf) or math.isinf(buckets / spread):
        return DensityHistogram(lo, lo, [len(coords)])
    counts = [0] * buckets
    scale = buckets / spread
    top = buckets - 1
    for c in coords:
        i = int((c - lo) * scale)
        counts[top if i > top else i] += 1
    return DensityHistogram(lo, hi, counts)


def analyze_table(table: Any, buckets: int = DEFAULT_BUCKETS) -> TableStats:
    """Compute a fresh :class:`TableStats` for ``table``.

    ``table`` needs ``.name``, ``.rows`` (sequence of tuples) and
    ``.schema`` (iterable of columns with ``.name`` / ``.type``); it is
    not mutated — callers (``Table.analyze``) cache the result.
    """
    rows: Sequence[Tuple[Any, ...]] = table.rows
    stats = TableStats(table=table.name, row_count=len(rows))
    for i, col in enumerate(table.schema):
        values = [row[i] for row in rows]
        non_null = [v for v in values if v is not None]
        null_count = len(values) - len(non_null)
        ndv = len({_hashable(v) for v in non_null})
        cstats = ColumnStats(
            name=col.name,
            type=col.type,
            n_rows=len(values),
            null_count=null_count,
            ndv=ndv,
        )
        coords = [c for c in (column_coordinate(v) for v in non_null)
                  if c is not None]
        if coords and len(coords) == len(non_null):
            cstats.min_value = min(non_null)
            cstats.max_value = max(non_null)
            # NaN / ±inf fall in no bucket of a finite value range.
            finite = [c for c in coords if math.isfinite(c)]
            if finite:
                cstats.histogram = _build_histogram(finite, buckets)
        elif non_null and not isinstance(non_null[0], (list, dict, set)):
            try:
                cstats.min_value = min(non_null)
                cstats.max_value = max(non_null)
            except TypeError:
                pass  # mixed/unorderable ANY column: no extrema
        stats.columns[col.name] = cstats
    return stats
