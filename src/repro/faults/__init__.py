"""Deterministic fault injection and resilience for the control stack.

Every layer of the reproduction above the physics assumes a perfect
world: probes never fail, supplies never glitch, stations never drop,
and Algorithm 1 trusts every measurement it sees.  The paper's surface
controller must converge on real hardware with noisy RSSI reads and
flaky links, so this package makes failure a first-class, *measured*
quantity:

* **Injection** — :class:`FaultSpec` / :class:`FaultSchedule` describe
  a deterministic, seedable fault plan (probe dropouts, noise bursts,
  stuck/quantized actuators, supply brownouts, VISA I/O errors and
  timeouts, station churn).  The plan is realized by wrappers:
  :class:`FaultyBackend` over the ``measure_grid`` protocol,
  :class:`FaultyVisaSession` over the simulated VISA transport and
  :class:`StationChurn` over a fleet's station set.  All draws come
  from named seed streams of one schedule, so every fault trace
  replays exactly.
* **Resilience** — :class:`RetryPolicy` (exponential backoff + jitter
  on a virtual clock, deadline budget, typed retryable-error
  classification) wrapped around probes by :class:`RetryingBackend`;
  :class:`ProbePolicy` (median-of-k re-probing with NaN-outlier
  rejection) threaded through the
  :class:`~repro.core.controller.CentralizedController` grid paths;
  and station quarantine with last-known-good bias in
  :class:`~repro.api.fleet.FleetSession`.
* **Accounting** — a :class:`HealthMonitor` collects retries, faults
  seen and degraded stations into a serializable
  :class:`HealthReport`, so sessions can answer "how broken was the
  world?" after every campaign.

The ``fault_degradation`` and ``fleet_churn`` experiments
(:mod:`repro.experiments.robustness`) turn these hooks into measured
degradation curves with graceful-degradation check gates.
"""

from repro.faults.backends import FaultyBackend
from repro.faults.churn import StationChurn
from repro.faults.errors import ProbeFaultError, TransientFaultError
from repro.faults.health import HealthMonitor, HealthReport
from repro.faults.policy import ProbePolicy
from repro.faults.retry import RetryOutcome, RetryPolicy, RetryingBackend
from repro.faults.spec import (
    NO_FAULTS,
    FaultEvent,
    FaultSchedule,
    FaultSpec,
    FaultTrace,
    stream_seed,
)
from repro.faults.visa import FaultyVisaSession

__all__ = [
    "NO_FAULTS",
    "FaultEvent",
    "FaultSchedule",
    "FaultSpec",
    "FaultTrace",
    "FaultyBackend",
    "FaultyVisaSession",
    "HealthMonitor",
    "HealthReport",
    "ProbeFaultError",
    "ProbePolicy",
    "RetryOutcome",
    "RetryPolicy",
    "RetryingBackend",
    "StationChurn",
    "TransientFaultError",
    "stream_seed",
]
