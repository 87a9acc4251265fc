"""Chrome-trace validation CLI (``python -m repro.obs.tracecheck``).

Checks an exported Chrome ``trace_event`` JSON file structurally: every
complete (``ph: "X"``) span must carry ``span_id``/``parent_id`` args,
every parent id must resolve, and every child's ``[ts, ts + dur]``
interval must nest inside its parent's (within a clock-skew tolerance).

``--demo OUT.json`` first *produces* a trace to check: it runs a
``PARTITION BY`` SGB-Any query (``--partitions`` of them, 4 by default)
on a traced in-memory :class:`~repro.engine.database.Database`, dumps
the Chrome trace to ``OUT.json``, and writes the Prometheus snapshot next
to it (``OUT.prom``).  CI chains ``--demo`` with the validation to smoke-
test the whole tracing path on every push.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.trace import validate_chrome_trace


def build_demo_trace(out_path: Path, partitions: int = 4,
                     n: int = 400) -> Path:
    """Run a traced PARTITION BY SGB query and dump its Chrome trace."""
    from repro.engine.database import Database

    db = Database(trace=True)
    db.execute("CREATE TABLE pts (part int, x float, y float)")
    rows = []
    for i in range(n):
        # Four well-separated clusters per partition keeps groups stable.
        cluster = i % 3
        rows.append((
            i % partitions,
            cluster * 10.0 + (i % 7) * 0.05,
            cluster * 10.0 + (i % 5) * 0.05,
        ))
    db.insert("pts", rows)
    result = db.query(
        "SELECT part, count(*) FROM pts GROUP BY x, y "
        "DISTANCE-TO-ANY L2 WITHIN 1 PARTITION BY part"
    )
    assert result.rows, "demo query returned no rows"
    assert db.tracer is not None
    n_events = db.tracer.to_chrome_trace_file(out_path)
    prom_path = out_path.with_suffix(".prom")
    prom_path.write_text(db.metrics_snapshot())
    print(f"demo: {len(result.rows)} result rows, {n_events} trace events "
          f"-> {out_path}, prometheus snapshot -> {prom_path}")
    return out_path


def check_file(path: Path, tolerance_s: float = 0.005) -> int:
    """Validate one trace file; prints findings, returns exit status."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"ERROR: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    problems = validate_chrome_trace(payload, tolerance_s=tolerance_s)
    if problems:
        for p in problems:
            print(f"FAIL: {p}", file=sys.stderr)
        return 1
    spans = sum(1 for e in payload["traceEvents"] if e.get("ph") == "X")
    print(f"OK: {spans} spans nest correctly")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Validate an exported Chrome trace_event JSON file."
    )
    parser.add_argument("path", type=Path,
                        help="trace file to validate (created by --demo)")
    parser.add_argument("--demo", action="store_true",
                        help="first generate the trace by running a traced "
                             "PARTITION BY SGB query")
    parser.add_argument("--partitions", type=int, default=4,
                        help="partition count for --demo")
    parser.add_argument("--tolerance-ms", type=float, default=5.0,
                        help="nesting tolerance")
    args = parser.parse_args(argv)
    if args.demo:
        build_demo_trace(args.path, partitions=args.partitions)
    return check_file(args.path, tolerance_s=args.tolerance_ms / 1000.0)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
