"""Deterministic virtual time for the asyncio serving plane.

The whole reproduction runs on virtual clocks — the power supply
accounts switching time without sleeping and
:class:`~repro.faults.retry.RetryPolicy` accounts backoff the same way
— and the serving layer keeps that discipline inside ``asyncio``:
:class:`VirtualClock` replaces ``asyncio.sleep`` with heap-ordered
virtual timers, and :func:`run` drives an async ``main`` to completion
by alternating two phases:

1. **drain** — let every ready task run until the event loop goes
   quiescent (nothing left to do without advancing time);
2. **fire** — pop the earliest pending timer, jump ``now`` to its due
   time and wake its sleeper.

No wall-clock ever enters the simulation, so a multi-second service
run with thousands of arrivals executes in milliseconds and replays
bit-identically: task wakeups are ordered by ``(due time, timer
sequence)`` and the single-threaded ready queue is FIFO.  A drained
loop with no pending timers and an unfinished ``main`` is a genuine
deadlock and raises instead of hanging.
"""

from __future__ import annotations

import asyncio
import heapq
import math
from typing import Any, Awaitable, Callable, List, Tuple

#: Upper bound on quiescence-drain passes per phase.  One pass runs
#: every currently-ready callback; chains of task-wakes-task need one
#: pass per link, and a real program never approaches this depth — the
#: bound only turns a pathological self-rescheduling loop into an
#: ordinary (debuggable) timer phase instead of an infinite spin.
MAX_DRAIN_PASSES = 10_000


class VirtualClock:
    """Simulated time with heap-ordered sleepers.

    ``now`` starts at 0.0 and only advances when :func:`run`'s driver
    fires a timer; :meth:`sleep` parks the calling task on the heap
    until then.  A non-positive delay yields once (letting other ready
    tasks run) without touching the heap, mirroring
    ``asyncio.sleep(0)``.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        self._timers: List[Tuple[float, int, "asyncio.Future[None]"]] = []

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending_timers(self) -> int:
        """Sleepers currently parked on the heap (cancelled ones incl.)."""
        return len(self._timers)

    async def sleep(self, delay: float) -> None:
        """Suspend the calling task for ``delay`` virtual seconds.

        A non-finite ``delay`` raises ``ValueError``: a NaN due time
        would never advance ``now`` and an infinite one would jump it to
        infinity.
        """
        if not math.isfinite(delay):
            raise ValueError(f"sleep delay must be finite, got {delay!r}")
        if delay <= 0.0:
            await asyncio.sleep(0)
            return
        future: "asyncio.Future[None]" = (
            asyncio.get_running_loop().create_future())
        self._sequence += 1
        heapq.heappush(self._timers, (self._now + delay, self._sequence,
                                      future))
        await future

    def fire_next(self) -> bool:
        """Advance to the earliest pending timer and wake its sleeper.

        Returns ``False`` when no live timer remains (cancelled
        sleepers are discarded without advancing time).  Only the
        :func:`run` driver should call this.
        """
        while self._timers:
            due, _sequence, future = heapq.heappop(self._timers)
            if future.done():
                continue
            self._now = max(self._now, due)
            future.set_result(None)
            return True
        return False


async def _drain_ready() -> None:
    """Yield until the running event loop has no ready callbacks left."""
    loop = asyncio.get_running_loop()
    ready = getattr(loop, "_ready", None)
    if ready is None:  # non-CPython loop: bounded fixed-depth drain
        for _ in range(64):
            await asyncio.sleep(0)
        return
    passes = 0
    while ready and passes < MAX_DRAIN_PASSES:
        await asyncio.sleep(0)
        passes += 1


def run(main: Callable[[], Awaitable[Any]],
        clock: VirtualClock) -> Any:
    """Run ``main()`` to completion under ``clock``'s virtual time.

    The driver interleaves quiescence drains with timer firings until
    the main task finishes, then returns its result.  If the loop goes
    quiescent with no pending timer while ``main`` is still running,
    the program can never progress — that is reported as a
    :class:`RuntimeError` (deadlock) rather than a hang.
    """

    async def _driver() -> Any:
        task = asyncio.ensure_future(main())
        while not task.done():
            await _drain_ready()
            if task.done():
                break
            if not clock.fire_next():
                task.cancel()
                await _drain_ready()
                raise RuntimeError(
                    "virtual-clock deadlock: the service went quiescent "
                    "with no pending timers while main() was unfinished")
        return task.result()

    return asyncio.run(_driver())


__all__ = ["MAX_DRAIN_PASSES", "VirtualClock", "run"]
