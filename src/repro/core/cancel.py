"""Cooperative cancellation and deadlines for query execution.

The engine's execution model is a synchronous iterator tree, so a query
cannot be interrupted preemptively — instead, a :class:`CancelToken`
rides in the statement's :class:`~repro.obs.explain.QueryContext`, which
is bound to every plan node, and :meth:`CancelToken.check` is called at
operator-iteration boundaries:
each row crossing a plan-node edge re-checks the token, so a spooling
aggregate is interruptible while it consumes its child even though it
yields nothing until finalize.

Two trip conditions, two typed errors:

* client-initiated cancellation (:meth:`cancel`, e.g. the service's
  ``cancel`` wire op, or a session disconnecting mid-query) raises
  :class:`~repro.errors.QueryCancelledError`;
* an expired deadline raises :class:`~repro.errors.QueryTimeoutError`.

Deadlines are measured on the monotonic clock (``time.monotonic``) — a
deadline must keep meaning "n seconds from submission" across wall-clock
steps, and nothing about a *grouping decision* ever reads the token, so
determinism of results is untouched.

Tokens are thread-safe (the waiter that cancels and the worker thread
that checks are different threads by construction) and are deliberately
**not** shipped to worker processes — the parallel executor checks the
token between partition dispatches instead (see
:func:`repro.core.parallel.run_partitions`).
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.errors import QueryCancelledError, QueryTimeoutError


class CancelToken:
    """Cooperative cancel/deadline flag checked at iteration boundaries.

    >>> token = CancelToken()
    >>> token.check()  # no deadline, not cancelled: no-op
    >>> token.cancel()
    >>> token.cancelled
    True
    """

    __slots__ = ("_cancelled", "deadline", "label")

    def __init__(self, deadline: Optional[float] = None, label: str = ""):
        #: Monotonic-clock deadline (``time.monotonic()`` scale) or None.
        self.deadline = deadline
        #: Free-form description used in error messages (e.g. request id).
        self.label = label
        self._cancelled = threading.Event()

    @classmethod
    def with_timeout(cls, timeout_s: Optional[float],
                     label: str = "") -> "CancelToken":
        """A token whose deadline is ``timeout_s`` seconds from now.

        ``None`` (or a non-positive infinite budget is not a thing —
        any ``timeout_s <= 0`` trips on the first check) means no
        deadline.
        """
        if timeout_s is None:
            return cls(label=label)
        return cls(deadline=time.monotonic() + timeout_s, label=label)

    # -- tripping ----------------------------------------------------------
    def cancel(self) -> None:
        """Request cancellation; the running query notices at its next
        iteration-boundary :meth:`check`."""
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    @property
    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def remaining_s(self) -> Optional[float]:
        """Seconds until the deadline (may be negative); None if no
        deadline."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    # -- checking ----------------------------------------------------------
    def check(self) -> None:
        """Raise the matching typed error if the token has tripped.

        Cancellation wins over expiry when both hold: an explicit client
        action is the more specific signal.
        """
        if self._cancelled.is_set():
            suffix = f" ({self.label})" if self.label else ""
            raise QueryCancelledError(f"query cancelled{suffix}")
        if self.expired:
            suffix = f" ({self.label})" if self.label else ""
            raise QueryTimeoutError(
                f"query exceeded its deadline{suffix}"
            )

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else (
            "expired" if self.expired else "live"
        )
        return f"CancelToken({state}, label={self.label!r})"
