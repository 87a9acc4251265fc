"""repro.service — the asynchronous SGB query service.

The paper positions similarity GROUP BY as an operator *served by* a
DBMS; this package is the serving layer in front of
:class:`repro.Database`:

* :class:`~repro.service.server.SGBService` — an asyncio TCP server
  speaking a JSON-lines wire protocol (``query`` / ``execute`` /
  ``explain`` / ``cancel`` / ``ping`` / ``metrics`` / ``stream``) with a
  per-connection session layer and a connection cap;
* :class:`~repro.service.scheduler.QueryScheduler` — a bounded worker
  pool that runs engine calls off the event loop, with a FIFO admission
  queue that sheds load as typed
  :class:`~repro.errors.ServiceOverloadedError` responses;
* per-query deadlines and client cancellation via
  :class:`~repro.core.cancel.CancelToken`, checked cooperatively by the
  engine where rows enter the plan and where they multiply (see
  :mod:`repro.core.cancel`);
* an HTTP ``GET /metrics`` endpoint unifying the engine's Prometheus
  snapshot with service-level counters, gauges, and latency histograms;
* :class:`~repro.service.client.ServiceClient` — the synchronous client
  used by the tests, ``benchmarks/e2e/``, and the shell's ``\\connect``.

Run a server with ``python -m repro.service``; see ``docs/service.md``
for the wire protocol and the knob/metric catalogs.
"""

from repro.core.cancel import CancelToken
from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.scheduler import QueryScheduler
from repro.service.server import ServerThread, SGBService

__all__ = [
    "SGBService",
    "ServerThread",
    "ServiceClient",
    "ServiceConfig",
    "QueryScheduler",
    "CancelToken",
    "ServiceError",
    "ServiceOverloadedError",
    "QueryTimeoutError",
    "QueryCancelledError",
]
