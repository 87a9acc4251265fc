"""Server process handle and the closed/open-loop load generator.

The load generator is one process with one thread and one
:class:`~repro.service.ServiceClient` connection per lane (at most two —
the cores this box has).  Responses are kept and checked against the
oracle *after* each round, outside the timed interval.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import threading
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.service import ServiceClient

from calibrate import at_reference_speed
from workloads import Lane, Op, Workload, response_value

SERVER_MAIN = Path(__file__).resolve().parent / "server_main.py"
_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: An open-loop lane this far behind its schedule has a growing backlog;
#: the round is aborted and reported failed instead of printing the
#: backlog as latency.
BACKLOG_ABORT_S = 1.0


class ServerProc:
    """One spawned ``server_main.py``; ``setup_s`` is spawn → first
    ``ping`` answered (interpreter start, imports, data generation, load,
    ANALYZE, listener bind)."""

    def __init__(self, workload: str, seed: int, scale: float = 1.0,
                 trace: bool = False):
        cmd = [sys.executable, str(SERVER_MAIN), "--workload", workload,
               "--seed", str(seed), "--scale", repr(scale)]
        if trace:
            cmd.append("--trace")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
        try:
            line = self.proc.stdout.readline().split()
            if len(line) != 2 or line[0] != b"READY":
                raise RuntimeError(
                    f"server for {workload!r} did not come up: {line!r}"
                )
            self.port = int(line[1])
            with self.client() as client:
                client.ping()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0
        #: ``perf_counter`` stamps of the spawn, for the calibrator.
        self.window = (t0, t0 + self.setup_s)

    def client(self) -> ServiceClient:
        return ServiceClient(port=self.port)

    @contextmanager
    def clients(self, n: int) -> Iterator[List[ServiceClient]]:
        """``n`` connections, closed on exit."""
        with ExitStack() as stack:
            yield [stack.enter_context(self.client()) for _ in range(n)]

    def cpu_s(self) -> float:
        """utime + stime + reaped children of the server process."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return sum(int(v) for v in fields[11:15]) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def __enter__(self) -> "ServerProc":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def measure_setup(workload: str, seed: int, scale: float, spawns: int,
                  ) -> Tuple[ServerProc, List[Tuple[float, float]]]:
    """``spawns`` cold starts one after another; the last is kept.
    Returns it and every spawn's ``(t0, t1)`` window."""
    windows: List[Tuple[float, float]] = []
    server: Optional[ServerProc] = None
    for _ in range(spawns):
        if server is not None:
            server.stop()
        server = ServerProc(workload, seed, scale)
        windows.append(server.window)
    assert server is not None
    return server, windows


# ----------------------------------------------------------------------
class OpRecord(NamedTuple):
    op: Op
    due: float      # when the op was due (== sent for a closed loop)
    sent: float
    done: float
    response: Any   # decoded response, or the raised error


def send(client: ServiceClient, op: Op) -> Any:
    if op.kind == "query":
        return client.query(op.arg)
    if op.kind == "execute":
        return client.execute(op.arg)
    return client.stream_snapshot(op.arg)


def _cycle(ops: Sequence[Op], cyclic: bool) -> Iterator[Op]:
    while True:
        yield from ops
        if not cyclic:
            return


class LaneLog:
    def __init__(self) -> None:
        self.records: List[OpRecord] = []
        self.aborted = False


def _run_lane(lane: Lane, ops: Sequence[Op], round_index: int,
              client: ServiceClient, start: threading.Barrier,
              clock: Dict[str, float], slice_s: float, log: LaneLog) -> None:
    interval = None if lane.rate is None else 1.0 / lane.rate
    jitter = random.Random(lane.seed * 1009 + round_index)
    start.wait()
    t0 = clock["t0"]
    deadline = t0 + slice_s
    for k, op in enumerate(_cycle(ops, lane.cyclic)):
        if interval is None:
            due = sent = time.perf_counter()
            if lane.cyclic and sent >= deadline:
                break
        else:
            due = t0 + (k + jitter.random()) * interval
            if due >= deadline:
                break
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            if sent - due > BACKLOG_ABORT_S:
                log.aborted = True
                break
        try:
            response: Any = send(client, op)
        except (ReproError, OSError) as exc:
            response = exc
        log.records.append(
            OpRecord(op, due, sent, time.perf_counter(), response)
        )


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default definition)."""
    data = sorted(values)
    if not data:
        return float("nan")
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


class RoundResult:
    """One timed round: raw records, the raw per-round metrics and the
    ``(t0, t1)`` window the calibrator is asked about."""

    def __init__(self, workload: Workload, logs: List[LaneLog], t0: float,
                 t1: float, cpu_s: float):
        self.window = (t0, t1)
        self.aborted = any(log.aborted for log in logs)
        #: Every op sent, and those answered as the oracle expects;
        #: responses are dropped once checked (a round of 3000-row
        #: results is tens of MB the next round's client would carry).
        self.records: List[OpRecord] = []
        self.ok: List[OpRecord] = []
        for log in logs:
            for rec in log.records:
                checked = rec._replace(response=None)
                self.records.append(checked)
                if (not isinstance(rec.response, Exception)
                        and response_value(rec.op.kind, rec.response)
                        == workload.expected.get(rec.op.key)):
                    self.ok.append(checked)
            log.records.clear()
        self.attempted = len(self.records)
        if self.aborted:
            # The whole round is void: its latencies describe a backlog.
            self.ok = []
            self.attempted = max(self.attempted, 1)
        self.failed = self.attempted - len(self.ok)
        self.wall_s = max((r.done for r in self.records), default=t0) - t0
        self.latencies_ms = [
            (r.done - r.due) * 1e3 for r in self.ok
            if r.op.cls in workload.latency_cls
        ]
        self.late_ms = [(r.sent - r.due) * 1e3 for r in self.records]
        done = sum(1 for r in self.ok if r.op.cls in workload.throughput_cls)
        self.metrics = {
            "p50_ms": quantile(self.latencies_ms, 0.5),
            "p90_ms": quantile(self.latencies_ms, 0.9),
            "throughput_ops_s": done / self.wall_s if self.wall_s else 0.0,
            "cpu_ms_per_op": (cpu_s * 1e3 / len(self.ok)) if self.ok
            else float("nan"),
        }

    def completed(self, cls: str) -> int:
        return sum(1 for r in self.ok if r.op.cls == cls)


def run_round(server: ServerProc, workload: Workload, lanes: Sequence[Lane],
              clients: Sequence[ServiceClient], round_index: int,
              slice_s: float) -> RoundResult:
    """All lanes start together; cyclic schedules run for ``slice_s``
    seconds (an op in flight at the deadline completes and is counted),
    finite ones to their end."""
    schedules = [lane.ops(round_index) for lane in lanes]  # before t0
    logs = [LaneLog() for _ in lanes]
    clock: Dict[str, float] = {}

    def arm() -> None:  # runs once, in one thread, as the barrier trips
        clock["cpu0"] = server.cpu_s()
        clock["t0"] = time.perf_counter()

    barrier = threading.Barrier(len(lanes), action=arm)
    threads = [
        threading.Thread(
            target=_run_lane,
            args=(lane, ops, round_index, client, barrier, clock, slice_s,
                  log),
            name=f"lane-{lane.name}",
        )
        for lane, ops, client, log in zip(lanes, schedules, clients, logs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    t1 = time.perf_counter()
    cpu_s = server.cpu_s() - clock["cpu0"]
    return RoundResult(workload, logs, clock["t0"], t1, cpu_s)


def run_rounds(server: ServerProc, workload: Workload, rounds: int,
               seconds: float) -> Tuple[List[RoundResult], int]:
    """The untraced measurement: ``rounds`` rounds of ``seconds/rounds``
    each.  Returns them and the failures of the workload's final check."""
    slice_s = seconds / rounds
    lanes = workload.lanes(slice_s)
    with server.clients(len(lanes)) as clients:
        results = [
            run_round(server, workload, lanes, clients, k, slice_s)
            for k in range(rounds)
        ]
        progress = {
            k: r.completed("insert") for k, r in enumerate(results)
        }
        return results, workload.final_check(clients[0], progress)


def summarize(results: Sequence[RoundResult], speeds: Sequence[float],
              units: Dict[str, str]) -> Dict[str, Any]:
    """Every end-to-end metric per round, at reference machine speed
    (``speeds[k]`` is round k's slowdown, see calibrate.py), reported as
    the median of the rounds."""
    per_round = [
        {name: at_reference_speed(value, units[name], speed)
         for name, value in r.metrics.items()}
        for r, speed in zip(results, speeds)
    ]
    pooled = [ms for r in results for ms in r.latencies_ms]
    return {
        "metrics": {
            name: statistics.median(m[name] for m in per_round)
            for name in per_round[0]
        },
        "raw_metrics": {
            name: statistics.median(r.metrics[name] for r in results)
            for name in per_round[0]
        },
        "speeds": list(speeds),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "aborted_rounds": sum(1 for r in results if r.aborted),
        "latency_samples": len(pooled),
        "gen_late_p90_ms": quantile(
            [ms for r in results for ms in r.late_ms], 0.9),
        "per_round": per_round,
    }
