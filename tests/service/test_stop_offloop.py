"""Regression test for the async ``stop()`` fix.

A blocking-in-async lint rule (since deleted; this test pins what it
caught) found ``SGBService.stop`` calling ``QueryScheduler.shutdown``
directly on the event loop thread.  ``shutdown`` enqueues one sentinel
per worker on the *bounded* work queue, which can block when the queue
is full — stalling every coroutine.  The fix hops to a worker thread via
``asyncio.to_thread``; this test pins that the shutdown call no longer
runs on the loop thread.
"""

import asyncio
import threading

from repro.service.server import SGBService


def test_scheduler_shutdown_runs_off_the_event_loop():
    svc = SGBService()
    seen = {}
    real_shutdown = svc.scheduler.shutdown

    def recording_shutdown(wait=True):
        seen["shutdown_thread"] = threading.get_ident()
        return real_shutdown(wait)

    svc.scheduler.shutdown = recording_shutdown

    async def main():
        seen["loop_thread"] = threading.get_ident()
        await svc.stop()

    asyncio.run(main())
    assert "shutdown_thread" in seen
    assert seen["shutdown_thread"] != seen["loop_thread"]
