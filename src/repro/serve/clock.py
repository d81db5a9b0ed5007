"""Deterministic virtual time for the serving plane: a discrete-event loop.

The whole reproduction runs on virtual clocks — the power supply
accounts switching time without sleeping and
:class:`~repro.faults.retry.RetryPolicy` accounts backoff the same way
— and the serving layer keeps that discipline with a plain event heap.
An *actor* is a generator that yields what it waits for:

* a positive delay parks it on the heap until ``now + delay``;
* a delay ``<= 0`` puts it at the back of the ready queue without
  touching the heap or advancing time;
* ``None`` parks it until another actor calls :meth:`VirtualClock.wake`.

:meth:`VirtualClock.run` steps the ready actors in FIFO order until
none is left, then pops the earliest timer, jumps ``now`` to its due
time and readies its actor.  No wall-clock ever enters the simulation,
so a multi-second service run with thousands of arrivals executes in
milliseconds and replays bit-identically: timers pop in ``(due time,
sequence)`` order and the ready queue is FIFO.  Running out of work
with an actor still parked on ``None`` is a genuine deadlock and
raises instead of hanging.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Deque, Generator, List, Optional, Set, Tuple

#: A generator that yields delays in virtual seconds, or ``None`` to
#: park until woken.
Actor = Generator[Optional[float], None, None]

#: What ``next`` returns for an actor that has finished.
_DONE = object()


class VirtualClock:
    """Simulated time with a heap of parked actors.

    ``now`` starts at 0.0 and only advances when :meth:`run` pops a
    timer.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        self._timers: List[Tuple[float, int, Actor]] = []
        self._ready: Deque[Actor] = deque()
        self._parked: Set[Actor] = set()

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending_timers(self) -> int:
        """Actors currently parked on the heap."""
        return len(self._timers)

    def wake(self, actor: Actor) -> None:
        """Ready an actor parked on ``None`` (a no-op for any other)."""
        if actor in self._parked:
            self._parked.remove(actor)
            self._ready.append(actor)

    def run(self, *actors: Actor) -> None:
        """Run ``actors`` (stepped in the given order) to completion.

        An exception raised by an actor propagates; a non-finite
        delay raises ``ValueError`` (a NaN due time would never
        advance ``now`` and an infinite one would jump it to
        infinity).  Running out of timers while an actor is parked on
        ``None`` raises :class:`RuntimeError` (deadlock).
        """
        ready, timers = self._ready, self._timers
        ready.extend(actors)
        try:
            while True:
                while ready:
                    actor = ready.popleft()
                    delay = next(actor, _DONE)
                    if delay is _DONE:
                        continue
                    if delay is None:
                        self._parked.add(actor)
                    elif 0.0 < delay < math.inf:
                        self._sequence += 1
                        heapq.heappush(timers, (self._now + delay,
                                                self._sequence, actor))
                    elif -math.inf < delay <= 0.0:
                        ready.append(actor)
                    else:
                        raise ValueError(
                            f"delay must be finite, got {delay!r}")
                if not timers:
                    break
                due, _sequence, actor = heapq.heappop(timers)
                self._now = due
                ready.append(actor)
            if self._parked:
                raise RuntimeError(
                    "virtual-clock deadlock: no timer is pending and "
                    f"{len(self._parked)} actor(s) wait to be woken")
        finally:
            ready.clear()
            timers.clear()
            self._parked.clear()


__all__ = ["Actor", "VirtualClock"]
