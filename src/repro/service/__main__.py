"""``python -m repro.service`` — run an SGB query server.

Example::

    python -m repro.service --port 7474 --metrics-port 9109 --demo 5000

then, from another terminal::

    python -m repro.service.client --port 7474 \\
        --sql "SELECT count(*) FROM checkins GROUP BY latitude, longitude \\
               DISTANCE-TO-ANY L2 WITHIN 0.5"
    curl http://127.0.0.1:9109/metrics
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro.engine.database import Database
from repro.service.config import ServiceConfig
from repro.service.server import SGBService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve a similarity-group-by database over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7474,
                        help="query port (0 = ephemeral)")
    parser.add_argument("--metrics-port", type=int, default=None,
                        help="HTTP GET /metrics port (omit to disable)")
    parser.add_argument("--workers", type=int, default=2,
                        help="scheduler worker threads")
    parser.add_argument("--queue-depth", type=int, default=32,
                        help="admission queue capacity")
    parser.add_argument("--max-connections", type=int, default=64)
    parser.add_argument("--default-timeout", type=float, default=30.0,
                        help="per-request deadline when the request has "
                             "no timeout_s (0 = none)")
    parser.add_argument("--trace", action="store_true",
                        help="enable hierarchical span tracing")
    parser.add_argument("--demo", type=int, metavar="N", default=0,
                        help="preload N synthetic check-ins into a "
                             "'checkins' table")
    return parser


async def _serve(service: SGBService) -> None:
    await service.start()
    print(
        f"repro.service listening on "
        f"{service.config.host}:{service.port}"
        + (
            f", metrics on http://{service.config.host}:"
            f"{service.metrics_port}/metrics"
            if service.metrics_port is not None else ""
        ),
        flush=True,
    )
    assert service._server is not None
    async with service._server:
        await service._server.serve_forever()


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    db = Database(trace=args.trace)
    if args.demo:
        from repro.workloads.checkins import brightkite

        brightkite(args.demo).populate(db)
        print(f"loaded {args.demo} demo check-ins into 'checkins'")
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        metrics_port=args.metrics_port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_connections=args.max_connections,
        default_timeout_s=args.default_timeout or None,
    )
    service = SGBService(db=db, config=config)
    try:
        asyncio.run(_serve(service))
    except KeyboardInterrupt:
        print("shutting down")
    return 0


if __name__ == "__main__":
    sys.exit(main())
