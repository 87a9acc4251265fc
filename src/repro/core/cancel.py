"""Cooperative cancellation and deadlines for query execution.

The engine's execution model is a synchronous iterator tree, so a query
cannot be interrupted preemptively — instead, a :class:`CancelToken`
rides in the statement's :class:`~repro.obs.explain.QueryContext`, which
is bound to every plan node, and the nodes call :meth:`CancelToken.check`
where rows enter the plan and where they multiply, as PostgreSQL checks
for interrupts inside scan and build loops: leaf scans, and nodes that
emit rows they hold, check before each chunk of rows (chunks double
from 1 up to ``PhysicalOperator.CHECKPOINT_EVERY`` and halve after a
chunk slower than ``PhysicalOperator.CHUNK_BUDGET_S``); join probes
count candidates in strides that grow and shrink the same way; the
aggregation nodes
check between chunks of each column they evaluate.  A row crossing a
node edge is not checked, so a query stops within one stride of rows or
candidates, never more rows than had passed before the cancel, and —
when each row is slow — within a few milliseconds or one slow row.

Two trip conditions, two typed errors:

* client-initiated cancellation (:meth:`cancel`, e.g. the service's
  ``cancel`` wire op, or a session disconnecting mid-query) raises
  :class:`~repro.errors.QueryCancelledError`;
* an expired deadline raises :class:`~repro.errors.QueryTimeoutError`.

Deadlines are measured on the monotonic clock (``time.monotonic``) — a
deadline must keep meaning "n seconds from submission" across wall-clock
steps, and nothing about a *grouping decision* ever reads the token, so
determinism of results is untouched.

Tokens are thread-safe: the waiter that cancels and the worker thread
that checks are different threads by construction.  A PARTITION BY
statement also checks its token between partitions (see
:func:`repro.core.parallel.label_partitions`).
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.errors import QueryCancelledError, QueryTimeoutError


class CancelToken:
    """Cooperative cancel/deadline flag the executing nodes check.

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

        ``None`` means no deadline.  A ``timeout_s <= 0`` is already
        expired, so the first check trips.
        """
        if timeout_s is None:
            return cls(label=label)
        return cls(deadline=time.monotonic() + timeout_s, label=label)

    # -- tripping ----------------------------------------------------------
    def cancel(self) -> None:
        """Request cancellation; the running query notices at its next
        :meth:`check`."""
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
