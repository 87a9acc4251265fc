"""The asyncio SGB query service.

One :class:`SGBService` wraps one :class:`~repro.engine.database.Database`
behind two listeners:

* a JSON-lines TCP endpoint (sessions, queries, cancellation) — the
  event loop only frames and dispatches; engine work runs on the
  :class:`~repro.service.scheduler.QueryScheduler` worker pool so a slow
  SGB aggregation never blocks another session's I/O;
* an optional minimal HTTP endpoint serving ``GET /metrics`` — the
  engine's Prometheus snapshot concatenated with the service-level
  counters, gauges, and latency histograms — and ``GET /status`` — a
  JSON operational summary: uptime, sessions, scheduler depth, the
  trace buffer's occupancy, and the query log's slow-query ring.

Wire protocol (one JSON object per line; see docs/service.md):

* server → client events: ``{"event": "hello", ...}`` on connect (or an
  ``{"event": "error", ...}`` greeting when the connection cap refuses
  the session).
* client → server requests: ``{"id": "r1", "op": ..., ...}`` with ops
  ``query`` / ``execute`` (``sql``, optional ``timeout_s``), ``explain``
  (``sql``), ``stream`` (``name``), ``cancel`` (``target``), ``ping``,
  ``metrics``.
* server → client responses: ``{"id": "r1", "ok": true, ...}`` or
  ``{"id": "r1", "ok": false, "error": {"type", "message"}}``.

Requests on one session run *concurrently* (each becomes an event-loop
task awaiting its scheduler future), so a session can issue ``cancel``
while its earlier query is still executing; responses carry the request
id and may arrive out of submission order.

When the database's tracer is enabled, every scheduled request also
ingests a manufactured span family — ``service_request`` with
``service_queue`` / ``service_exec`` children — built from timestamps
rather than live :class:`~repro.obs.trace.TraceSpan` handles, because
a request's queue and exec times are captured on two different threads
(the event loop and a worker), while a live span nests on the one
thread that opened it.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from typing import Any, Callable, Dict, Optional

from repro import __version__
from repro.engine.database import Database
from repro.errors import ReproError, ServiceError, ServiceOverloadedError
from repro.core.cancel import CancelToken
from repro.service import wire
from repro.service.config import ServiceConfig, finite_seconds
from repro.service.metrics import service_prometheus_text
from repro.service.scheduler import QueryScheduler
from repro.service.session import Session

#: Ops that run engine work on the scheduler (and are cancellable).
SCHEDULED_OPS = frozenset({"query", "execute", "explain", "stream"})


class SGBService:
    """The server object; see the module docstring for the protocol."""

    def __init__(self, db: Optional[Database] = None,
                 config: Optional[ServiceConfig] = None):
        self.db = db if db is not None else Database()
        self.config = config if config is not None else ServiceConfig()
        self.scheduler = QueryScheduler(
            workers=self.config.workers,
            queue_depth=self.config.queue_depth,
        )
        #: Wall-clock start, for the ``/status`` uptime field.
        self._started_wall = time.time()
        self._sessions: Dict[str, Session] = {}
        self._session_seq = 0
        self._trace_seq = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        #: Bound ports, available after :meth:`start` (ephemeral-port
        #: configs read the real port from here).
        self.port: Optional[int] = None
        self.metrics_port: Optional[int] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind both listeners and record the bound ports."""
        cfg = self.config
        self._server = await asyncio.start_server(
            self._on_connect, cfg.host, cfg.port, limit=wire.MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if cfg.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._on_metrics_connect, cfg.host, cfg.metrics_port
            )
            self.metrics_port = (
                self._metrics_server.sockets[0].getsockname()[1]
            )

    async def run(self) -> None:
        """Start and serve until cancelled (the ``__main__`` entry)."""
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Close listeners, trip in-flight tokens, stop the scheduler."""
        for server in (self._server, self._metrics_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        for session in list(self._sessions.values()):
            session.cancel_all()
            session.closed = True
            try:
                session.writer.close()
            except Exception:
                pass
        # Queued items still drain (daemon workers), new submits refuse.
        # Off the event loop: shutdown() puts one sentinel per worker on
        # the (bounded) work queue, which can block when the queue is
        # full — a stall here would freeze every other coroutine.
        await asyncio.to_thread(self.scheduler.shutdown, False)

    @property
    def active_sessions(self) -> int:
        return len(self._sessions)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """The full ``/metrics`` payload: engine snapshot + service
        section (disjoint series names, so plain concatenation)."""
        gauges = {
            "service_queue_depth": float(self.scheduler.queue_depth),
            "service_inflight": float(self.scheduler.inflight),
            "service_sessions_active": float(len(self._sessions)),
        }
        return self.db.metrics_snapshot() + service_prometheus_text(
            self.scheduler.metrics_view(), gauges
        )

    def status_payload(self) -> Dict[str, Any]:
        """The ``GET /status`` JSON body: one operational snapshot."""
        db = self.db
        out: Dict[str, Any] = {
            "server": "repro.service",
            "version": __version__,
            "uptime_s": round(time.time() - self._started_wall, 3),
            "sessions": len(self._sessions),
            "scheduler": {
                "queue_depth": self.scheduler.queue_depth,
                "inflight": self.scheduler.inflight,
            },
            "trace": {"enabled": db.trace_enabled},
        }
        if db.tracer is not None:
            out["trace"]["spans_retained"] = len(db.tracer)
            out["trace"]["spans_dropped"] = db.tracer.dropped
        if db.query_log is not None:
            out["query_log"] = db.query_log.status()
            out["query_log"]["enabled"] = db.query_log_enabled
        else:
            out["query_log"] = {"enabled": False}
        return out

    # ------------------------------------------------------------------
    # TCP session handling
    # ------------------------------------------------------------------
    async def _send(self, session: Session, message: Dict[str, Any]) -> None:
        """Write one frame under the session's write lock; drops are
        silent once the peer is gone (the response has nowhere to go)."""
        if session.closed or session.writer.is_closing():
            return
        try:
            async with session.write_lock:
                session.writer.write(wire.dumps(message))
                await session.writer.drain()
        except (ConnectionError, RuntimeError):
            session.closed = True

    async def _on_connect(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        if len(self._sessions) >= self.config.max_connections:
            self.scheduler.incr_metric("service_connections_refused")
            refusal = ServiceOverloadedError(
                f"connection refused: {self.config.max_connections} "
                f"sessions already connected"
            )
            try:
                writer.write(wire.dumps(
                    {"event": "error", "error": wire.error_payload(refusal)}
                ))
                await writer.drain()
            except ConnectionError:
                pass
            finally:
                writer.close()
            return
        self._session_seq += 1
        session = Session(f"s{self._session_seq}", writer)
        self._sessions[session.session_id] = session
        self.scheduler.incr_metric("service_sessions_opened")
        try:
            await self._send(session, {
                "event": "hello",
                "server": "repro.service",
                "version": __version__,
                "protocol": wire.PROTOCOL_VERSION,
                "session": session.session_id,
            })
            await self._read_loop(session, reader)
        finally:
            # Disconnect cleanup: trip every in-flight token (engine work
            # stops at its next cancel checkpoint), let the response
            # tasks finish (their writes no-op once closed), then retire
            # the session.
            session.cancel_all()
            if session.tasks:
                await asyncio.gather(
                    *list(session.tasks), return_exceptions=True
                )
            session.closed = True
            self._sessions.pop(session.session_id, None)
            self.scheduler.incr_metric("service_sessions_closed")
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_loop(self, session: Session,
                         reader: asyncio.StreamReader) -> None:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                # Oversized frame: the stream is no longer in sync with
                # the protocol, so report and hang up.
                await self._send(session, {
                    "event": "error",
                    "error": wire.error_payload(ServiceError(
                        f"frame exceeds {wire.MAX_LINE_BYTES} bytes"
                    )),
                })
                return
            if not line:  # EOF: client hung up
                return
            if not line.strip():
                continue
            try:
                msg = wire.loads(line)
            except ServiceError as exc:
                await self._send(session, {
                    "id": None, "ok": False,
                    "error": wire.error_payload(exc),
                })
                continue
            session.requests += 1
            self.scheduler.incr_metric("service_requests")
            task = asyncio.ensure_future(
                self._handle_request(session, msg)
            )
            session.tasks.add(task)
            task.add_done_callback(session.tasks.discard)

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    def _token_for(self, msg: Dict[str, Any], rid: str) -> CancelToken:
        """The request's token: a deadline ``timeout_s`` seconds from
        now (the server default when the field is absent), none when it
        is null.  Any other value than a finite, non-bool real number is
        a :class:`ServiceError` here, on the event loop, before a worker
        slot is taken: a NaN deadline would never expire."""
        timeout_s = msg.get("timeout_s", self.config.default_timeout_s)
        if timeout_s is None:
            return CancelToken(label=rid)
        seconds = finite_seconds(timeout_s)
        if seconds is None:
            raise ServiceError(
                f"'timeout_s' must be a finite number of seconds or null, "
                f"got {timeout_s!r}"
            )
        return CancelToken.with_timeout(seconds, label=rid)

    def _work_fn(self, op: str, msg: Dict[str, Any], token: CancelToken,
                 timing: Dict[str, float]) -> Callable[[], Any]:
        """Build the engine call a scheduler worker will run.

        Validation happens *here*, on the event loop, so a malformed
        request fails fast instead of occupying a worker slot.  The
        wall-clock stamps in ``timing`` feed the manufactured trace
        spans.
        """
        db = self.db
        sql = ""
        name = ""
        if op in ("query", "execute", "explain"):
            raw_sql = msg.get("sql")
            if not isinstance(raw_sql, str) or not raw_sql.strip():
                raise ServiceError(f"op {op!r} requires a 'sql' string")
            sql = raw_sql
        else:  # stream
            raw_name = msg.get("name")
            if not isinstance(raw_name, str) or not raw_name:
                raise ServiceError("op 'stream' requires a 'name' string")
            name = raw_name

        def work() -> Any:
            timing["exec_start"] = time.time()
            try:
                if op == "query":
                    return db.query(sql, cancel=token)
                if op == "execute":
                    return db.execute(sql, cancel=token)
                if op == "explain":
                    return db.explain(sql)
                snap = db.stream_snapshot(name)
                return {
                    "n_points": snap.n_points,
                    "n_groups": snap.n_groups,
                    "n_eliminated": snap.n_eliminated,
                    "labels": list(snap.labels),
                    "group_sizes": snap.group_sizes(),
                }
            finally:
                timing["exec_end"] = time.time()

        return work

    async def _handle_request(self, session: Session,
                              msg: Dict[str, Any]) -> None:
        rid = msg.get("id")
        rid_str = str(rid) if rid is not None else ""
        op = msg.get("op")
        t0 = time.monotonic()
        t0_wall = time.time()
        timing: Dict[str, float] = {}
        payload: Dict[str, Any] = {"id": rid, "ok": True}
        error: Optional[BaseException] = None
        counted = False  # outcome already counted by the scheduler?
        try:
            if not isinstance(op, str):
                raise ServiceError("request lacks an 'op' string")
            if op == "ping":
                payload["pong"] = True
            elif op == "cancel":
                target = str(msg.get("target", ""))
                payload["cancelled"] = session.cancel_request(target)
            elif op == "metrics":
                payload["text"] = await asyncio.to_thread(self.metrics_text)
            elif op in SCHEDULED_OPS:
                token = self._token_for(msg, rid_str)
                fn = self._work_fn(op, msg, token, timing)
                session.track(rid_str, token)
                try:
                    try:
                        future = self.scheduler.submit(
                            fn, token=token, label=op
                        )
                    except ServiceOverloadedError:
                        counted = True  # in service_rejected
                        raise
                    counted = True  # worker classifies the outcome
                    result = await asyncio.wrap_future(future)
                finally:
                    session.untrack(rid_str)
                if op == "explain":
                    payload["plan"] = result
                elif op == "stream":
                    payload["snapshot"] = result
                else:
                    payload["result"] = wire.encode_result(result)
            else:
                raise ServiceError(f"unknown op {op!r}")
        except ReproError as exc:
            error = exc
            payload = {
                "id": rid, "ok": False, "error": wire.error_payload(exc),
            }
        except Exception as exc:  # engine bugs still get a typed reply
            error = exc
            payload = {
                "id": rid, "ok": False, "error": wire.error_payload(exc),
            }
        if error is not None and not counted:
            self.scheduler.incr_metric("service_errors")
        await self._send(session, payload)
        self.scheduler.observe_metric(
            "service_request_latency", time.monotonic() - t0
        )
        if self.db.tracer is not None and isinstance(op, str) \
                and op in SCHEDULED_OPS:
            self._ingest_request_trace(
                session, rid_str, op, t0_wall, timing, error
            )

    # ------------------------------------------------------------------
    # manufactured trace spans
    # ------------------------------------------------------------------
    def _ingest_request_trace(self, session: Session, rid: str, op: str,
                              t0_wall: float, timing: Dict[str, float],
                              error: Optional[BaseException]) -> None:
        """Ingest a service_request → (service_queue, service_exec) span
        family for one scheduled request (see the module docstring for
        why these are records, not live spans)."""
        tracer = self.db.tracer
        if tracer is None:
            return
        self._trace_seq += 1
        n = self._trace_seq
        now = time.time()
        exec_start = timing.get("exec_start")
        exec_end = timing.get("exec_end", now)
        pid = os.getpid()
        trace_id = f"tsvc{n}"
        root_id = f"svc{n}"
        attrs: Dict[str, Any] = {
            "op": op, "session": session.session_id,
        }
        if rid:
            attrs["request_id"] = rid
        if error is not None:
            attrs["error"] = type(error).__name__
        records = [{
            "trace_id": trace_id, "span_id": root_id, "parent_id": "",
            "name": "service_request", "start_s": t0_wall, "end_s": now,
            "pid": pid, "attrs": attrs,
        }, {
            "trace_id": trace_id, "span_id": f"{root_id}q",
            "parent_id": root_id, "name": "service_queue",
            "start_s": t0_wall,
            # A request that never reached a worker queued to the end.
            "end_s": exec_start if exec_start is not None else now,
            "pid": pid, "attrs": {},
        }]
        if exec_start is not None:
            records.append({
                "trace_id": trace_id, "span_id": f"{root_id}x",
                "parent_id": root_id, "name": "service_exec",
                "start_s": exec_start, "end_s": exec_end,
                "pid": pid, "attrs": {},
            })
        tracer.ingest(records)

    # ------------------------------------------------------------------
    # HTTP /metrics
    # ------------------------------------------------------------------
    async def _on_metrics_connect(self, reader: asyncio.StreamReader,
                                  writer: asyncio.StreamWriter) -> None:
        """One-shot HTTP/1.1 exchange: parse the request line, drain the
        headers, serve ``GET /metrics`` or ``GET /status``, close."""
        import json as _json

        try:
            request_line = await reader.readline()
            while True:
                header = await reader.readline()
                if not header or header in (b"\r\n", b"\n"):
                    break
            parts = request_line.decode("latin-1").split()
            method = parts[0] if parts else ""
            path = parts[1].split("?", 1)[0] if len(parts) > 1 else ""
            if method == "GET" and path == "/metrics":
                text = await asyncio.to_thread(self.metrics_text)
                status = "200 OK"
                content_type = "text/plain; version=0.0.4; charset=utf-8"
                body = text.encode("utf-8")
            elif method == "GET" and path == "/status":
                payload = await asyncio.to_thread(self.status_payload)
                status = "200 OK"
                content_type = "application/json; charset=utf-8"
                body = (_json.dumps(payload, sort_keys=True) + "\n").encode(
                    "utf-8"
                )
            else:
                status = "404 Not Found"
                content_type = "text/plain; charset=utf-8"
                body = b"only GET /metrics and GET /status live here\n"
            head = (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class ServerThread:
    """A server on a background thread — the harness tests, the bench,
    and the shell's ``\\connect`` all use this.

    >>> from repro.service import ServerThread, ServiceClient
    >>> with ServerThread() as server:                  # doctest: +SKIP
    ...     client = ServiceClient("127.0.0.1", server.port)
    ...     client.query("SELECT 1").rows
    [(1,)]

    Defaults to ephemeral ports (``port=0``, ``metrics_port=0``) so
    parallel test runs never collide; read the bound ports from
    :attr:`port` / :attr:`metrics_port` after :meth:`start`.
    """

    def __init__(self, db: Optional[Database] = None,
                 config: Optional[ServiceConfig] = None):
        if config is None:
            config = ServiceConfig(port=0, metrics_port=0)
        self.service = SGBService(db=db, config=config)
        self._thread = threading.Thread(
            target=self._run, name="sgb-service", daemon=True
        )
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None

    @property
    def db(self) -> Database:
        return self.service.db

    @property
    def port(self) -> int:
        if self.service.port is None:
            raise ServiceError("server is not started")
        return self.service.port

    @property
    def metrics_port(self) -> Optional[int]:
        return self.service.metrics_port

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise ServiceError("service thread failed to start in 10 s")
        if self._error is not None:
            raise ServiceError(
                f"service failed to start: {self._error}"
            ) from self._error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.service.start())
        except BaseException as exc:
            self._error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.service.stop())
            # Connection-handler tasks may still be unwinding their
            # cleanup; stop() closed every writer, so they resolve on
            # their own — wait (bounded) rather than cancel, because
            # asyncio.streams' done-callback re-raises CancelledError
            # into the loop's exception handler.
            pending = asyncio.all_tasks(loop)
            if pending:
                loop.run_until_complete(asyncio.wait(pending, timeout=5.0))
            loop.close()

    def stop(self) -> None:
        loop = self._loop
        if loop is not None and self._thread.is_alive():
            loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout=10.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.stop()
