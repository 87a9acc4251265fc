"""Per-connection session state.

A session is one TCP connection's identity and bookkeeping: the writer it
owns, the cancel tokens of its in-flight requests (the ``cancel`` op and
disconnect cleanup both resolve request ids through here), and the
response tasks spawned on its behalf.  All mutation happens on the event
loop thread; the only cross-thread traffic is ``CancelToken.cancel()``,
which is just a ``threading.Event`` set.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Set

from repro.core.cancel import CancelToken


class Session:
    """One connected client."""

    __slots__ = (
        "session_id", "writer", "write_lock", "inflight", "tasks",
        "requests", "closed",
    )

    def __init__(self, session_id: str, writer: asyncio.StreamWriter):
        self.session_id = session_id
        self.writer = writer
        #: Serializes response writes — request tasks complete in any
        #: order, and two interleaved ``writer.write`` + ``drain`` pairs
        #: could otherwise split a frame under backpressure.
        self.write_lock = asyncio.Lock()
        #: request id -> its cancel token, while the request is running.
        self.inflight: Dict[str, CancelToken] = {}
        #: Live request-handler tasks (awaited on close).
        self.tasks: "Set[asyncio.Task]" = set()
        #: Requests received on this session (hello/stats reporting).
        self.requests = 0
        self.closed = False

    def cancel_request(self, request_id: str) -> bool:
        """Cancel one in-flight request; False when the id is unknown
        (already finished, never existed, or another session's)."""
        token = self.inflight.get(request_id)
        if token is None:
            return False
        token.cancel()
        return True

    def cancel_all(self) -> int:
        """Disconnect cleanup: trip every in-flight token so worker-held
        engine work stops at its next cancel checkpoint."""
        for token in self.inflight.values():
            token.cancel()
        return len(self.inflight)

    def track(self, request_id: Optional[str],
              token: CancelToken) -> None:
        if request_id:
            self.inflight[request_id] = token

    def untrack(self, request_id: Optional[str]) -> None:
        if request_id:
            self.inflight.pop(request_id, None)

    def __repr__(self) -> str:
        return (
            f"Session({self.session_id}, inflight={len(self.inflight)}, "
            f"requests={self.requests}, closed={self.closed})"
        )
