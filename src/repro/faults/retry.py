"""Retry with exponential backoff on a virtual clock.

:class:`RetryPolicy` is the typed answer to every hand-rolled
``while True: try/except`` loop (lint rule RPR006 flags those outside
this package): exponential backoff with bounded jitter, a hard
deadline budget, and a typed retryable-error classification — only
:data:`~repro.faults.errors.DEFAULT_RETRYABLE` faults are retried,
programming errors propagate immediately.

Like the supply simulation, the policy keeps a *virtual* clock: waits
are accounted (``RetryOutcome.waited_s``, bounded by ``deadline_s``)
but never slept, so retry-heavy campaigns run at simulation speed and
stay deterministic.

:class:`RetryingBackend` wraps any measurement backend so every
``measure_grid`` probe runs under the policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Type

import numpy as np

from repro.faults.errors import DEFAULT_RETRYABLE
from repro.faults.health import HealthMonitor
from repro.faults.spec import FaultSchedule


@dataclass(frozen=True)
class RetryOutcome:
    """What one policy-governed call cost.

    Attributes
    ----------
    value:
        The wrapped callable's return value.
    attempts:
        Calls issued (1 = first try succeeded).
    waited_s:
        Total virtual backoff time consumed (never exceeds the
        policy's ``deadline_s``).
    """

    value: Any
    attempts: int
    waited_s: float

    @property
    def retries(self) -> int:
        """Retry attempts beyond the first call."""
        return self.attempts - 1


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff + jitter with a deadline budget.

    Attributes
    ----------
    max_attempts:
        Total attempts (first call included).
    base_delay_s:
        Backoff before the first retry.
    backoff_factor:
        Multiplier per further retry (>= 1, so nominal delays are
        monotonically non-decreasing).
    jitter_fraction:
        Bounded jitter: each delay is drawn uniformly from
        ``[nominal, nominal * (1 + jitter_fraction)]``.
    deadline_s:
        Hard budget on total (virtual) backoff time; a retry whose
        delay would exceed it re-raises instead.
    retryable:
        Exception classes worth retrying; everything else propagates
        immediately.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.02
    backoff_factor: float = 2.0
    jitter_fraction: float = 0.1
    deadline_s: float = math.inf
    retryable: Tuple[Type[BaseException], ...] = DEFAULT_RETRYABLE

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.base_delay_s < 0:
            raise ValueError("base delay must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff factor must be >= 1 (delays may "
                             "never shrink)")
        if self.jitter_fraction < 0:
            raise ValueError("jitter fraction must be non-negative")
        if self.deadline_s <= 0:
            raise ValueError("deadline must be positive")
        object.__setattr__(self, "retryable", tuple(self.retryable))

    # ------------------------------------------------------------------ #
    # Delay schedule
    # ------------------------------------------------------------------ #
    def nominal_delay_s(self, attempt: int) -> float:
        """Jitter-free backoff after the ``attempt``-th failed call."""
        if attempt < 1:
            raise ValueError("attempts are 1-based")
        return self.base_delay_s * self.backoff_factor ** (attempt - 1)

    def backoff_delays(self) -> Tuple[float, ...]:
        """The full jitter-free delay schedule (one per possible retry)."""
        return tuple(self.nominal_delay_s(attempt)
                     for attempt in range(1, self.max_attempts))

    def delay_s(self, attempt: int,
                rng: Optional[np.random.Generator] = None) -> float:
        """The (possibly jittered) backoff after one failed attempt.

        Without an ``rng`` the delay is the nominal schedule value;
        with one, jitter is drawn from the generator, so a fixed-seed
        generator reproduces the exact delay sequence.
        """
        nominal = self.nominal_delay_s(attempt)
        if rng is None or self.jitter_fraction == 0 or nominal == 0:
            return nominal
        return nominal * (1.0 + self.jitter_fraction * float(rng.random()))

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(self, call: Callable[[], Any],
                rng: Optional[np.random.Generator] = None,
                monitor: Optional[HealthMonitor] = None) -> RetryOutcome:
        """Run ``call`` under the policy; returns the full outcome.

        Retries only the configured ``retryable`` exceptions, backs off
        on the virtual clock, and re-raises the last error once the
        attempt budget or the deadline is exhausted.  ``waited_s`` of
        the returned outcome never exceeds ``deadline_s``.
        """
        attempts = 0
        waited_s = 0.0
        while True:
            attempts += 1
            try:
                value = call()
            except self.retryable as error:
                if attempts >= self.max_attempts:
                    raise
                delay = self.delay_s(attempts, rng=rng)
                if waited_s + delay > self.deadline_s:
                    raise error
                waited_s += delay
                if monitor is not None:
                    monitor.record_retry()
                continue
            return RetryOutcome(value=value, attempts=attempts,
                                waited_s=waited_s)

    def call(self, call: Callable[[], Any],
             rng: Optional[np.random.Generator] = None,
             monitor: Optional[HealthMonitor] = None) -> Any:
        """:meth:`execute`, returning just the wrapped value."""
        return self.execute(call, rng=rng, monitor=monitor).value


class RetryingBackend:
    """A measurement backend whose probes run under a retry policy.

    Wraps any ``measure_grid`` backend.  Jitter draws come from the
    fault schedule's ``"retry.jitter"`` stream when a schedule is given,
    keeping retry timing inside the replayable trace; retries and waits
    are tallied on the monitor.
    """

    def __init__(self, backend, policy: Optional[RetryPolicy] = None,
                 monitor: Optional[HealthMonitor] = None,
                 schedule: Optional[FaultSchedule] = None):
        self.backend = backend
        self.policy = policy if policy is not None else RetryPolicy()
        self.monitor = monitor
        self._rng = (schedule.stream("retry.jitter")
                     if schedule is not None else None)

    def measure_grid(self, grid) -> np.ndarray:
        """One N-D grid probe under the retry policy."""
        if self.monitor is not None:
            self.monitor.record_probe()
        return self.policy.call(lambda: self.backend.measure_grid(grid),
                                rng=self._rng, monitor=self.monitor)


__all__ = ["RetryOutcome", "RetryPolicy", "RetryingBackend"]
