"""Service configuration knobs (see docs/service.md for the catalog)."""

from __future__ import annotations

from typing import Optional

from repro.errors import InvalidParameterError


class ServiceConfig:
    """Tuning knobs for :class:`~repro.service.server.SGBService`.

    ``port`` / ``metrics_port``
        TCP ports; ``0`` binds an ephemeral port (the bound one is
        exposed as ``SGBService.port`` / ``.metrics_port`` after start).
        ``metrics_port=None`` disables the HTTP metrics listener.
    ``workers``
        Threads in the query scheduler's pool.  Engine statements
        serialize on the database's statement lock, so extra workers buy
        *queue concurrency* (admission, deadline checks, cancellation
        responsiveness) rather than parallel compute.
    ``queue_depth``
        Admission queue capacity; a submit beyond it is shed immediately
        with :class:`~repro.errors.ServiceOverloadedError`.
    ``max_connections``
        Concurrent session cap; connections beyond it are greeted with a
        typed error event and closed.
    ``default_timeout_s``
        Deadline applied to requests that do not carry ``timeout_s``;
        ``None`` means no default deadline.
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
