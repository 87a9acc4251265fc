"""A writer-preferring shared/exclusive lock: the database's statement lock.

Readers (SELECT, EXPLAIN, catalog lookups) hold it *shared* and run beside
each other; writers (INSERT, DDL, ANALYZE, anything that flushes a stream
view or toggles process-global state) hold it *exclusive*.  A reader that
arrives while a writer waits queues behind that writer, so a stream of
overlapping reads cannot starve a write.

The lock is not re-entrant in either mode: a thread that asks for it again
while holding it gets an :class:`~repro.errors.ExecutionError` instead of
a deadlock (a shared re-entry would otherwise hang as soon as a writer
queued between the two acquisitions).  Public ``Database`` methods take it; private helpers
assume it is held.

>>> lock = RWLock()
>>> with lock.shared():
...     lock.readers
1
>>> with lock.exclusive():
...     lock.readers
0
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Set

from repro.errors import ExecutionError

#: Seconds between ``poll`` calls while a caller waits for the lock.
POLL_S = 0.05


class RWLock:
    """Shared/exclusive lock with writer preference and no re-entry.

    ``acquire_shared``/``release_shared`` and ``acquire``/``release``
    are the two modes; :meth:`shared` and :meth:`exclusive` wrap them as
    context managers.  Both acquires take an optional ``poll`` callable,
    run every :data:`POLL_S` seconds while blocked; whatever it raises
    abandons the wait (a cancel token's ``check``), leaving the lock as
    it was.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._readers: Set[int] = set()
        self._writer: Optional[int] = None
        self._writers_waiting = 0

    @property
    def readers(self) -> int:
        """Threads holding the lock shared right now."""
        return len(self._readers)

    def _refuse_reentry(self, me: int) -> None:
        if me == self._writer or me in self._readers:
            raise ExecutionError("the statement lock is not re-entrant")

    def _wait(self, ready: Callable[[], bool],
              poll: Optional[Callable[[], None]]) -> None:
        """Block on the condition until ``ready()``; caller holds it."""
        while not ready():
            if poll is None:
                self._cond.wait()
            else:
                poll()
                self._cond.wait(POLL_S)

    def acquire_shared(self, poll: Optional[Callable[[], None]] = None,
                       ) -> None:
        me = threading.get_ident()
        with self._cond:
            self._refuse_reentry(me)
            self._wait(lambda: self._writer is None
                       and not self._writers_waiting, poll)
            self._readers.add(me)

    def release_shared(self) -> None:
        with self._cond:
            me = threading.get_ident()
            if me not in self._readers:
                raise ExecutionError("release of a shared lock not held")
            self._readers.remove(me)
            if not self._readers:
                self._cond.notify_all()

    def acquire(self, poll: Optional[Callable[[], None]] = None) -> None:
        me = threading.get_ident()
        with self._cond:
            self._refuse_reentry(me)
            self._writers_waiting += 1
            try:
                self._wait(lambda: self._writer is None
                           and not self._readers, poll)
            except BaseException:
                # Readers held back only by this waiter may go now.
                self._writers_waiting -= 1
                self._cond.notify_all()
                raise
            self._writers_waiting -= 1
            self._writer = me

    def release(self) -> None:
        with self._cond:
            if self._writer != threading.get_ident():
                raise ExecutionError("release of an exclusive lock not held")
            self._writer = None
            self._cond.notify_all()

    @contextmanager
    def shared(self) -> Iterator[None]:
        self.acquire_shared()
        try:
            yield
        finally:
            self.release_shared()

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        self.acquire()
        try:
            yield
        finally:
            self.release()
