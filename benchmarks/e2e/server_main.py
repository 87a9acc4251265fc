"""The system under test: one SGB query server in its own process.

``python3 benchmarks/e2e/server_main.py --workload W --seed N`` generates
the workload's data from the seed, loads a default ``Database()``, runs
ANALYZE, serves it with the service defaults the benchmark fixes
(2 workers, queue depth 64, no default deadline, no HTTP listener) on an
ephemeral port, prints ``READY <port>`` and serves until SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path
from typing import List, Optional

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_HERE.parents[1] / "src"))


async def _serve(service) -> None:
    await service.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    print(f"READY {service.port}", flush=True)
    await stop.wait()
    await service.stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true",
                        help="Database(trace=True): obs.trace_on_ratio")
    args = parser.parse_args(argv)

    from repro.engine.database import Database
    from repro.service import ServiceConfig, SGBService

    from workloads import make_workload

    db = Database(trace=args.trace)
    make_workload(args.workload, args.seed, args.scale).populate(db)
    db.update_statistics()
    config = ServiceConfig(port=0, workers=2, queue_depth=64,
                           default_timeout_s=None, metrics_port=None)
    asyncio.run(_serve(SGBService(db=db, config=config)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
