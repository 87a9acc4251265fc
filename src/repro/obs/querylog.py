"""Structured query log with plan fingerprints and a drift detector.

Every executed SELECT can be recorded as one :class:`QueryRecord`:
what ran (SQL, plan fingerprint, the SGB strategy that ran + its
provenance), what the planner *expected* (estimated rows / cost from the
:mod:`repro.stats` cost model), and what actually happened (rows,
latency, resource counters).  The record's ``ratio`` — actual rows over
estimated rows — is the planner's report card: a ratio outside the
configured band marks the record as **drifted**, which is the concrete
evidence the cost-based chooser needs before anyone trusts (or fixes)
its estimates.

A row is a rendering of the run's plan record
(:func:`repro.obs.explain.plan_metrics`, the dict ``EXPLAIN ANALYZE``
and ``metrics_json()`` also render): this module reads that record and
never a plan node, so the three cannot disagree.

Plan fingerprints
-----------------
:func:`plan_fingerprint` hashes the plan *shape*: every node's
``node`` line (its ``describe()``) at its tree depth, with the volatile
``strategy=…`` suffix (``auto``, ``grid/flag``, ``grid,all-pairs/auto``)
stripped.  Two executions of the
same logical plan therefore share a fingerprint even when the chooser
picked different strategies (the strategy is recorded separately), so
aggregating misestimates by fingerprint groups them by *plan*, which is
where cardinality estimates live.

Storage
-------
Records always land in a bounded in-memory ring (feeding the shell's
``\\querylog`` and the service's ``/status`` slow-query view); with a
``path`` they are also appended as JSONL — one self-describing object
per line, the format ``python -m repro.obs.querylog`` aggregates:

    python -m repro.obs.querylog queries.jsonl            # by fingerprint
    python -m repro.obs.querylog queries.jsonl --drift-only
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

#: Default drift band: actual/estimated row ratios outside
#: [1/3, 3] flag the record.  PostgreSQL folklore calls one order of
#: magnitude "bad"; 3x is where SGB strategy rankings start flipping.
DEFAULT_BAND = (1 / 3.0, 3.0)

#: Default in-memory ring capacity.
DEFAULT_CAPACITY = 256

_STRATEGY_SUFFIX = " strategy="


def _strip_strategy(describe_line: str) -> str:
    """Drop the volatile ``strategy=…`` describe suffix."""
    i = describe_line.rfind(_STRATEGY_SUFFIX)
    if i >= 0 and " " not in describe_line[i + len(_STRATEGY_SUFFIX):]:
        return describe_line[:i]
    return describe_line


def plan_signature(record: Dict[str, Any]) -> List[str]:
    """The structural signature lines a fingerprint is hashed from."""
    lines: List[str] = []

    def walk(rec: Dict[str, Any], depth: int) -> None:
        lines.append(f"{depth}:{_strip_strategy(rec['node'])}")
        for child in rec.get("children", ()):
            walk(child, depth + 1)

    walk(record, 0)
    return lines


def plan_fingerprint(record: Dict[str, Any]) -> str:
    """Stable 16-hex-digit fingerprint of the recorded plan's structure."""
    blob = "\n".join(plan_signature(record)).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


def _plan_decision(record: Dict[str, Any]) -> Tuple[str, str]:
    """``(strategy, source)`` of the first SGB node, breadth first."""
    level = [record]
    while level:
        for rec in level:
            if "strategy" in rec:
                return rec["strategy"], rec["strategy_source"]
        level = [kid for rec in level for kid in rec.get("children", ())]
    return "", ""


class QueryRecord:
    """One logged query execution (see the module docstring)."""

    __slots__ = (
        "ts", "sql", "fingerprint", "root", "strategy", "strategy_source",
        "est_rows", "est_cost", "actual_rows", "latency_ms", "ratio",
        "drift", "counters",
    )

    def __init__(self, ts: float, sql: str, fingerprint: str, root: str,
                 strategy: str, strategy_source: str,
                 est_rows: Optional[int], est_cost: Optional[float],
                 actual_rows: int, latency_ms: float,
                 ratio: Optional[float], drift: bool,
                 counters: Dict[str, float]):
        self.ts = ts
        self.sql = sql
        self.fingerprint = fingerprint
        self.root = root
        self.strategy = strategy
        self.strategy_source = strategy_source
        self.est_rows = est_rows
        self.est_cost = est_cost
        self.actual_rows = actual_rows
        self.latency_ms = latency_ms
        self.ratio = ratio
        self.drift = drift
        self.counters = counters

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "ts": round(self.ts, 6),
            "sql": self.sql,
            "fingerprint": self.fingerprint,
            "root": self.root,
            "actual_rows": self.actual_rows,
            "latency_ms": round(self.latency_ms, 3),
            "drift": self.drift,
        }
        if self.strategy:
            out["strategy"] = self.strategy
            out["strategy_source"] = self.strategy_source
        if self.est_rows is not None:
            out["est_rows"] = self.est_rows
        if self.est_cost is not None:
            out["est_cost"] = round(self.est_cost, 4)
        if self.ratio is not None:
            out["ratio"] = round(self.ratio, 4)
        if self.counters:
            out["counters"] = self.counters
        return out

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "QueryRecord":
        return cls(
            ts=float(d.get("ts", 0.0)),
            sql=str(d.get("sql", "")),
            fingerprint=str(d.get("fingerprint", "")),
            root=str(d.get("root", "")),
            strategy=str(d.get("strategy", "")),
            strategy_source=str(d.get("strategy_source", "")),
            est_rows=d.get("est_rows"),
            est_cost=d.get("est_cost"),
            actual_rows=int(d.get("actual_rows", 0)),
            latency_ms=float(d.get("latency_ms", 0.0)),
            ratio=d.get("ratio"),
            drift=bool(d.get("drift", False)),
            counters=dict(d.get("counters", {})),
        )

    def __repr__(self) -> str:
        flag = " DRIFT" if self.drift else ""
        return (
            f"QueryRecord({self.fingerprint}, rows={self.actual_rows}, "
            f"est={self.est_rows}, {self.latency_ms:.2f} ms{flag})"
        )


class QueryLog:
    """Thread-safe query log: bounded ring plus optional JSONL sink.

    Parameters
    ----------
    path:
        Optional JSONL file; records append (the file is created on the
        first write, opened in append mode so logs survive reopening).
    band:
        ``(low, high)`` drift band on actual/estimated rows; a ratio
        outside it (strictly) marks the record as drifted.
    capacity:
        In-memory ring size for :meth:`recent` / :meth:`slowest`.
    """

    def __init__(self, path: Optional[str] = None,
                 band: Tuple[float, float] = DEFAULT_BAND,
                 capacity: int = DEFAULT_CAPACITY):
        low, high = float(band[0]), float(band[1])
        if not (0 < low <= high):
            raise ValueError(
                f"drift band must satisfy 0 < low <= high, got {band!r}"
            )
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.path = str(path) if path is not None else None
        self.band = (low, high)
        self._ring: Deque[QueryRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._fh = None
        self.recorded = 0
        self.drifted = 0

    # -- recording ---------------------------------------------------------
    def record_query(self, sql: str, record: Dict[str, Any],
                     actual_rows: int, latency_s: float,
                     counters: Optional[Dict[str, float]] = None
                     ) -> QueryRecord:
        """Build, store, and return the log row for one executed plan.

        The caller (the Database) supplies what only it knows — the SQL,
        the run's :func:`~repro.obs.explain.plan_metrics` record, the
        row count, the latency it measured with its monotonic clock and
        the statement's counter totals; everything else (fingerprint,
        root, estimates, drift classification, wall timestamp) is read
        off the record here.
        """
        est_rows = record.get("estimated_rows")
        est_cost = record.get("estimated_cost", {}).get("total")
        ratio: Optional[float] = None
        drift = False
        if est_rows is not None:
            # An estimate of 0 rows still predicts "tiny"; clamp to one
            # row so the ratio stays finite and 0-vs-0 is not a drift.
            ratio = max(actual_rows, 1) / max(est_rows, 1)
            low, high = self.band
            drift = ratio < low or ratio > high
        strategy, source = _plan_decision(record)
        row = QueryRecord(
            ts=time.time(),
            sql=" ".join(sql.split()),
            fingerprint=plan_fingerprint(record),
            root=_strip_strategy(record["node"]),
            strategy=strategy,
            strategy_source=source,
            est_rows=est_rows,
            est_cost=est_cost,
            actual_rows=actual_rows,
            latency_ms=latency_s * 1000.0,
            ratio=ratio,
            drift=drift,
            counters=dict(counters or {}),
        )
        self.append(row)
        return row

    def append(self, record: QueryRecord) -> None:
        with self._lock:
            self._ring.append(record)
            self.recorded += 1
            if record.drift:
                self.drifted += 1
            if self.path is not None:
                if self._fh is None:
                    self._fh = open(self.path, "a", encoding="utf-8")
                self._fh.write(
                    json.dumps(record.as_dict(), sort_keys=True) + "\n"
                )
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # -- reading -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    def recent(self, n: int = 10) -> List[QueryRecord]:
        """The last ``n`` records, newest first."""
        with self._lock:
            items = list(self._ring)
        return items[::-1][:n]

    def slowest(self, n: int = 5) -> List[QueryRecord]:
        """The ``n`` highest-latency retained records, slowest first."""
        with self._lock:
            items = list(self._ring)
        return sorted(items, key=lambda r: -r.latency_ms)[:n]

    def drift_records(self) -> List[QueryRecord]:
        with self._lock:
            return [r for r in self._ring if r.drift]

    def status(self, slow: int = 5) -> Dict[str, Any]:
        """JSON-ready summary for the service ``/status`` endpoint."""
        return {
            "recorded": self.recorded,
            "drifted": self.drifted,
            "retained": len(self._ring),
            "band": list(self.band),
            "path": self.path,
            "slow_queries": [r.as_dict() for r in self.slowest(slow)],
        }


# ----------------------------------------------------------------------
# offline aggregation (the ``python -m repro.obs.querylog`` CLI)
# ----------------------------------------------------------------------
def load_records(path: str) -> List[QueryRecord]:
    """Read a JSONL query log back into records (bad lines are skipped)."""
    records: List[QueryRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                if isinstance(d, dict):
                    records.append(QueryRecord.from_dict(d))
            except (ValueError, TypeError, KeyError):
                continue
    return records


def aggregate_by_fingerprint(
    records: Sequence[QueryRecord],
) -> List[Dict[str, Any]]:
    """Fold records into per-fingerprint misestimate summaries.

    Sorted worst first: by drifted count, then by how far the median
    ratio sits from 1.0 — the plans whose estimates most need fixing.
    """
    groups: Dict[str, List[QueryRecord]] = {}
    for r in records:
        groups.setdefault(r.fingerprint, []).append(r)
    out: List[Dict[str, Any]] = []
    for fp, items in groups.items():
        ratios = sorted(r.ratio for r in items if r.ratio is not None)
        median_ratio = ratios[len(ratios) // 2] if ratios else None
        worst_ratio = None
        if ratios:
            # Ratios are always positive; "worst" is the one farthest
            # from 1.0 multiplicatively (5x under is as bad as 5x over).
            worst_ratio = max(ratios, key=lambda x: max(x, 1.0 / x))
        misest = 0.0
        if median_ratio:
            misest = max(median_ratio, 1.0 / median_ratio)
        out.append({
            "fingerprint": fp,
            "count": len(items),
            "drifted": sum(1 for r in items if r.drift),
            "median_ratio": median_ratio,
            "worst_ratio": worst_ratio,
            "avg_latency_ms": sum(r.latency_ms for r in items) / len(items),
            "strategies": sorted({
                f"{r.strategy}/{r.strategy_source}"
                for r in items if r.strategy
            }),
            "example_sql": items[-1].sql,
            "_misestimate": misest,
        })
    out.sort(key=lambda g: (-g["drifted"], -g["_misestimate"], -g["count"]))
    for g in out:
        del g["_misestimate"]
    return out


def render_aggregate(groups: Sequence[Dict[str, Any]],
                     band: Tuple[float, float] = DEFAULT_BAND) -> str:
    """Text table for the CLI, one line per plan fingerprint."""
    total = sum(g["count"] for g in groups)
    drifted = sum(g["drifted"] for g in groups)
    lines = [
        f"{total} record(s), {len(groups)} plan fingerprint(s), "
        f"{drifted} drifted (band {band[0]:g}..{band[1]:g})",
        f"{'fingerprint':16s} {'count':>5s} {'drift':>5s} "
        f"{'med_ratio':>9s} {'worst':>7s} {'avg_ms':>8s}  strategies",
    ]
    for g in groups:
        med = f"{g['median_ratio']:.2f}" if g["median_ratio"] is not None \
            else "-"
        worst = f"{g['worst_ratio']:.2f}" if g["worst_ratio"] is not None \
            else "-"
        lines.append(
            f"{g['fingerprint']:16s} {g['count']:5d} {g['drifted']:5d} "
            f"{med:>9s} {worst:>7s} {g['avg_latency_ms']:8.2f}  "
            f"{','.join(g['strategies']) or '-'}"
        )
        sql = g["example_sql"]
        if len(sql) > 76:
            sql = sql[:73] + "..."
        lines.append(f"{'':16s} {sql}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.querylog",
        description="Aggregate a JSONL query log by plan fingerprint, "
                    "surfacing the plans whose row estimates drift most.",
    )
    parser.add_argument("path", help="query-log JSONL file")
    parser.add_argument("--drift-only", action="store_true",
                        help="only aggregate records flagged as drifted")
    parser.add_argument("--top", type=int, default=0,
                        help="show only the N worst fingerprints")
    parser.add_argument("--json", action="store_true",
                        help="emit the aggregation as JSON instead of text")
    args = parser.parse_args(argv)
    try:
        records = load_records(args.path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.drift_only:
        records = [r for r in records if r.drift]
    groups = aggregate_by_fingerprint(records)
    if args.top > 0:
        groups = groups[:args.top]
    if args.json:
        print(json.dumps(groups, indent=2, sort_keys=True))
    else:
        print(render_aggregate(groups))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
