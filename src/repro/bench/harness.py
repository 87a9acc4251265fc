"""Experiment harness: timing, normalization, and report formatting.

Each experiment in :mod:`repro.bench.experiments` produces a
:class:`Report` — a titled table of rows that prints in the same shape as
the corresponding paper table/figure series (methods × parameter axis).
"""

from __future__ import annotations

import csv
import gc
import io
import os
import subprocess
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


def time_call(fn: Callable[[], Any]) -> Tuple[float, Any]:
    """Wall-clock one call; returns (seconds, result).

    Garbage left by whatever ran before is collected first: a full
    collection of somebody else's heap landing inside a 20 ms call is not
    that call's time (it halved a fitted growth exponent in tier-1).
    """
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def bench_stamp() -> Dict[str, Any]:
    """Provenance stamp every committed ``BENCH_`` values file carries.

    Numbers without the commit they came from, the kernel backend that
    produced them, and the core count of the machine are not comparable
    across runs; the bench scripts attach this dict under ``"stamp"``.
    ``commit`` is None outside a git checkout (e.g. an sdist install).
    """
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    from repro import kernels

    return {
        "commit": commit,
        "backend": kernels.active_backend(),
        "cpu_count": os.cpu_count(),
    }


def normalize_points(
    points: Sequence[Sequence[float]],
) -> List[Tuple[float, ...]]:
    """Min-max normalize each dimension into [0, 1].

    The paper sweeps ε over 0.1–0.9, which presumes normalized grouping
    attributes; the harness normalizes extracted attribute pairs the same
    way.  Degenerate dimensions (constant value) map to 0.
    """
    if not points:
        return []
    dim = len(points[0])
    lo = [min(p[d] for p in points) for d in range(dim)]
    hi = [max(p[d] for p in points) for d in range(dim)]
    span = [(h - l) if h > l else 1.0 for l, h in zip(lo, hi)]
    return [
        tuple((p[d] - lo[d]) / span[d] for d in range(dim)) for p in points
    ]


class Report:
    """A titled result table with fixed column order."""

    def __init__(self, experiment_id: str, title: str, columns: List[str],
                 notes: str = ""):
        self.experiment_id = experiment_id
        self.title = title
        self.columns = columns
        self.notes = notes
        self.rows: List[Dict[str, Any]] = []

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    # ------------------------------------------------------------------
    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def format(self) -> str:
        header = [self.experiment_id + " — " + self.title]
        if self.notes:
            header.append(self.notes)
        widths = {
            c: max(len(c), *(len(_fmt(r.get(c))) for r in self.rows))
            if self.rows else len(c)
            for c in self.columns
        }
        line = " | ".join(c.ljust(widths[c]) for c in self.columns)
        sep = "-+-".join("-" * widths[c] for c in self.columns)
        body = [
            " | ".join(_fmt(r.get(c)).ljust(widths[c]) for c in self.columns)
            for r in self.rows
        ]
        return "\n".join(header + ["", line, sep] + body)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(_fmt(row.get(c)) for c in self.columns)
        return buf.getvalue().rstrip("\n")

    def ascii_chart(self, x_column: str, series: List[str],
                    width: int = 50, log: bool = True) -> str:
        """Render series as horizontal bar charts (log-scaled by default) —
        a terminal-friendly stand-in for the paper's log-axis figures."""
        import math

        values = [
            v for name in series for v in self.column(name)
            if isinstance(v, (int, float)) and v > 0
        ]
        if not values:
            return f"{self.experiment_id}: no data to chart"
        lo, hi = min(values), max(values)

        def bar(v) -> str:
            if not isinstance(v, (int, float)) or v <= 0:
                return ""
            if log and hi > lo:
                frac = (math.log(v) - math.log(lo)) / (
                    math.log(hi) - math.log(lo)
                )
            elif hi > lo:
                frac = (v - lo) / (hi - lo)
            else:
                frac = 1.0
            return "#" * max(1, int(round(frac * width)))

        label_w = max(len(s) for s in series)
        x_w = max((len(_fmt(r.get(x_column))) for r in self.rows),
                  default=1)
        out = [f"{self.experiment_id} — {self.title} "
               f"({'log' if log else 'linear'} scale)"]
        for row in self.rows:
            out.append(f"{x_column}={_fmt(row.get(x_column)).ljust(x_w)}")
            for name in series:
                v = row.get(name)
                out.append(
                    f"  {name.ljust(label_w)} |{bar(v)} {_fmt(v)}"
                )
        return "\n".join(out)

    def __repr__(self) -> str:
        return f"Report({self.experiment_id!r}, {len(self.rows)} rows)"


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != 0 and (abs(value) < 0.001 or abs(value) >= 1e6):
            return f"{value:.3e}"
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) vs log(x) — the empirical growth
    exponent used to validate the Table 1 complexity bounds."""
    import math

    pairs = [(math.log(x), math.log(y)) for x, y in zip(xs, ys)
             if x > 0 and y > 0]
    n = len(pairs)
    if n < 2:
        return float("nan")
    mean_x = sum(p[0] for p in pairs) / n
    mean_y = sum(p[1] for p in pairs) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in pairs)
    den = sum((x - mean_x) ** 2 for x, _ in pairs)
    return num / den if den else float("nan")
