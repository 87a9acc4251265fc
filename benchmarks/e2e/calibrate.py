"""Machine-speed calibration: why the benchmark's times repeat.

This box is a 2-vCPU VM on a shared host.  For seconds to many minutes
at a time everything in it runs 1.3-2x slower (CPU time inflates with
wall time, steal stays ~0, no memory pressure: contention for the
host's cache and memory), about a third of the time.  A slow spell
outlasts a run, so medians over rounds do not remove it.  Raw, the same
code read p50 = 134..255 ms on ``checkin_all`` across ten back-to-back
runs (IQR/median 0.29) and 0.15-0.47 on the other workloads: no bound
up to the 25% cap could hold.

So a calibrator process runs beside every measurement: a fixed ~1.7 ms
spin (counting loop, dict inserts, numpy arithmetic over 320 KB) every
30 ms, each sample stamped with the monotonic clock all processes share.
The *speed* of a time window is the median spin in it over
:data:`REFERENCE_SPIN_S`, and every time the benchmark reports is divided
by the speed of the window it was measured in (rates are multiplied): the
numbers are times **at reference machine speed**.  On a quiet box the
speed is ~1.0-1.1 and they are near the raw times; the report prints
both, and the speed of every round; ``--repeat`` prints the spread with
and without the correction.

What it buys, measured on this box: ``checkin_all`` rounds that read
136..207 ms raw came out at 106..123 ms; three ten-seed sets of all
five workloads (``--repeat 10``) spread 0.02-0.06, 0.03-0.11 and
0.04-0.23 calibrated, where the same runs spread up to 0.31 and 0.66
raw.  What it does not: the correction is one factor for all code, a
spell costs allocation-heavy interpreter code more (~1.8x) than numeric
kernels (~1.45x), and the slowdown moves faster than 30 ms samples
follow, so spread is left; the bounds in BENCHMARK.json are set from the
calibrated spreads.

The calibrator costs ~6% of one core, always, on both sides of any
comparison.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, List, Tuple

#: The spin's duration on this box (2-vCPU Xeon 2.1 GHz VM) beside a
#: busy server when the host is quiet: the lower quartile over an hour
#: of samples.
REFERENCE_SPIN_S = 1.75e-3
#: The spin runs cold, once after each sleep, on purpose: a slow spell
#: is contention for the shared cache and memory, which a spin that
#: stays hot in its own L1/L2 does not feel (three warm repetitions read
#: 1.0 through a spell that doubled every latency).
PERIOD_S = 0.03
#: A window is widened until it holds this many samples.
MIN_SAMPLES = 5


def _spin(a: Any) -> int:
    s = 0
    for i in range(12000):
        s += i * i
    d = {}
    for i in range(1500):
        d[i] = (i, float(i))
    b = a * 1.0001
    c = b - a[::-1]
    within = (c * c).sum(axis=1) <= 0.5
    return s + int(within.sum()) + len(d)


def _child() -> None:
    """Spin until SIGTERM, then print every ``(start, duration)``."""
    import numpy

    a = numpy.random.RandomState(0).rand(20000, 2)
    samples: List[Tuple[float, float]] = []
    stop: List[bool] = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    while not stop:
        t = time.perf_counter()
        _spin(a)
        samples.append((t, time.perf_counter() - t))
        time.sleep(PERIOD_S)
    json.dump(samples, sys.stdout)


class Calibrator:
    """The calibrator process; :meth:`speed` is valid after the ``with``
    block ends (the samples come back when the child is stopped)."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdout=subprocess.PIPE
        )
        self._starts: List[float] = []
        self._spins: List[float] = []

    def stop(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
        out, _ = self._proc.communicate()
        if out and not self._starts:
            for start, spin in json.loads(out):
                self._starts.append(start)
                self._spins.append(spin)

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def speed(self, t0: float, t1: float) -> float:
        """Machine slowdown over ``[t0, t1]`` (``perf_counter`` stamps):
        1.0 is the reference box when quiet, ~1.5 a slow spell."""
        if not self._starts:
            raise RuntimeError("calibrator gave no samples")
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_right(self._starts, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self._starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self._starts))
        return statistics.median(self._spins[lo:hi]) / REFERENCE_SPIN_S


def at_reference_speed(value: float, unit: str, speed: float) -> float:
    """A measurement taken at ``speed``, as it would read at speed 1."""
    if unit in ("s", "ms", "us"):
        return value / speed
    if unit == "1/s":
        return value * speed
    return value  # counts, ratios, megabytes


if __name__ == "__main__":
    _child()
