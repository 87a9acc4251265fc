"""Service configuration knobs (see docs/service.md for the catalog)."""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.errors import InvalidParameterError


def finite_seconds(value: Any) -> Optional[float]:
    """``value`` as seconds if it is a finite, non-bool real number, else
    None: a NaN deadline never expires, and ``True`` is not a second."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        seconds = float(value)
    except OverflowError:  # an integer past float range
        return None
    return seconds if math.isfinite(seconds) else None


class ServiceConfig:
    """Tuning knobs for :class:`~repro.service.server.SGBService`.

    ``port`` / ``metrics_port``
        TCP ports; ``0`` binds an ephemeral port (the bound one is
        exposed as ``SGBService.port`` / ``.metrics_port`` after start).
        ``metrics_port=None`` disables the HTTP metrics listener.
    ``workers``
        Threads in the query scheduler's pool.  SELECTs hold the
        database's statement lock shared, so extra workers run reads
        side by side — parallel up to the GIL: a read that waits (on
        I/O, a ``sleep``, a GIL hand-off) no longer holds others back,
        but pure-Python compute still takes turns.  Writes hold the lock
        exclusive and run alone.  Workers also buy queue concurrency
        (admission, deadline checks, cancellation responsiveness).
    ``queue_depth``
        Admission queue capacity; a submit beyond it is shed immediately
        with :class:`~repro.errors.ServiceOverloadedError`.
    ``max_connections``
        Concurrent session cap; connections beyond it are greeted with a
        typed error event and closed.
    ``default_timeout_s``
        Deadline applied to requests that do not carry ``timeout_s``: a
        finite number of seconds, or ``None`` for no default deadline.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7474,
        metrics_port: Optional[int] = None,
        workers: int = 2,
        queue_depth: int = 32,
        max_connections: int = 64,
        default_timeout_s: Optional[float] = 30.0,
    ):
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        if queue_depth < 1:
            raise InvalidParameterError(
                f"queue_depth must be >= 1, got {queue_depth}"
            )
        if max_connections < 1:
            raise InvalidParameterError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        if default_timeout_s is not None \
                and finite_seconds(default_timeout_s) is None:
            raise InvalidParameterError(
                f"default_timeout_s must be a finite number of seconds "
                f"or None, got {default_timeout_s!r}"
            )
        self.host = host
        self.port = port
        self.metrics_port = metrics_port
        self.workers = workers
        self.queue_depth = queue_depth
        self.max_connections = max_connections
        self.default_timeout_s = default_timeout_s

    def __repr__(self) -> str:
        return (
            f"ServiceConfig({self.host}:{self.port}, "
            f"workers={self.workers}, queue_depth={self.queue_depth}, "
            f"max_connections={self.max_connections}, "
            f"default_timeout_s={self.default_timeout_s})"
        )
