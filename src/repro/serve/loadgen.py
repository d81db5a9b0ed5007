"""Open-loop load generation on the virtual clock.

A Locust-style open-loop generator: arrivals are drawn from the
configured process regardless of how the service keeps up (the defining
property of open-loop load — a saturated server sees the queue grow,
not the offered load shrink).  Three arrival processes are supported
per station:

* ``poisson`` — exponential inter-arrivals (memoryless, the default);
* ``uniform`` — inter-arrivals uniform in ``[0.5, 1.5] / rate`` (same
  mean, far less bursty);
* ``burst``   — on/off cycles: Poisson arrivals at ``burst_factor`` x
  the nominal rate during the first ``burst_fraction`` of each
  ``burst_cycle_s`` window, silence otherwise.

Determinism is per station: every station draws from its own RNG
stream seeded by :func:`repro.faults.stream_seed` over ``(seed,
"loadgen.<station>")``, so adding or removing one station never
perturbs any other station's arrivals, and an identical profile over
identical stations reproduces the exact trace —
:meth:`~repro.serve.requests.RequestTrace.digest` is the pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.api.fleet import SCHEDULE_STRATEGIES
from repro.faults import stream_seed
from repro.serve.requests import REQUEST_KINDS, Request, RequestTrace

#: Arrival processes :class:`LoadProfile` understands.
ARRIVAL_PROCESSES = ("poisson", "uniform", "burst")

#: Bias-voltage window measure requests sample from (paper: 0-30 V).
BIAS_SAMPLE_RANGE_V = (0.0, 30.0)


@dataclass(frozen=True)
class RequestMix:
    """Relative weights of the four request kinds.

    Weights need not sum to one — they are normalized — but at least
    one must be positive.  The default mix is measurement-dominated
    with periodic re-optimization and scheduling, the steady state of a
    deployed controller.
    """

    measure: float = 0.90
    optimize: float = 0.05
    schedule: float = 0.03
    health: float = 0.02

    def __post_init__(self) -> None:
        weights = self.weights()
        if not all(math.isfinite(weight) and weight >= 0.0
                   for weight in weights):
            raise ValueError(
                f"mix weights must be finite and non-negative, got {weights}")
        if not sum(weights) > 0.0:
            raise ValueError("at least one mix weight must be positive")

    def weights(self) -> Tuple[float, float, float, float]:
        """Weights in :data:`~repro.serve.requests.REQUEST_KINDS` order."""
        return (self.measure, self.optimize, self.schedule, self.health)

    def probabilities(self) -> np.ndarray:
        """Normalized kind probabilities."""
        weights = np.asarray(self.weights(), dtype=float)
        return weights / weights.sum()


#: The measurement-only mix (capacity benchmarks).
MEASURE_ONLY = RequestMix(measure=1.0, optimize=0.0, schedule=0.0,
                          health=0.0)


@dataclass(frozen=True)
class LoadProfile:
    """One open-loop workload description.

    ``rate_rps`` is the *aggregate* arrival rate across all stations;
    each station offers ``rate_rps / station_count`` so the fleet size
    scales the per-station load down, not the total up.
    """

    rate_rps: float = 100.0
    duration_s: float = 1.0
    arrival: str = "poisson"
    mix: RequestMix = field(default_factory=RequestMix)
    seed: int = 0
    strategy: str = "polarization-reuse"
    burst_factor: float = 4.0
    burst_fraction: float = 0.25
    burst_cycle_s: float = 0.5

    def __post_init__(self) -> None:
        for name in ("rate_rps", "duration_s", "burst_factor",
                     "burst_fraction", "burst_cycle_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)!r}")
        if self.rate_rps <= 0.0:
            raise ValueError("arrival rate must be positive")
        if self.duration_s <= 0.0:
            raise ValueError("duration must be positive")
        if self.arrival not in ARRIVAL_PROCESSES:
            raise ValueError(f"unknown arrival process {self.arrival!r}; "
                             f"expected one of {ARRIVAL_PROCESSES}")
        if self.strategy not in SCHEDULE_STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; "
                             f"expected one of {SCHEDULE_STRATEGIES}")
        if self.burst_factor < 1.0:
            raise ValueError("burst factor must be >= 1")
        if not 0.0 < self.burst_fraction <= 1.0:
            raise ValueError("burst fraction must be in (0, 1]")
        if self.burst_cycle_s <= 0.0:
            raise ValueError("burst cycle must be positive")


def station_names(count: int, prefix: str = "sta") -> Tuple[str, ...]:
    """Zero-padded synthetic station names (``sta-000``, ``sta-001``...)."""
    if count < 1:
        raise ValueError("need at least one station")
    width = max(3, len(str(count - 1)))
    return tuple(f"{prefix}-{index:0{width}d}" for index in range(count))


def _arrival_times(profile: LoadProfile, rate: float,
                   rng: np.random.Generator) -> List[float]:
    """One station's arrival instants in ``[0, duration_s)``."""
    times: List[float] = []
    if profile.arrival == "burst":
        cycle = profile.burst_cycle_s
        burst_len = profile.burst_fraction * cycle
        burst_rate = rate * profile.burst_factor
        start = 0.0
        while start < profile.duration_s:
            at = start + float(rng.exponential(1.0 / burst_rate))
            while at < min(start + burst_len, profile.duration_s):
                times.append(at)
                at += float(rng.exponential(1.0 / burst_rate))
            start += cycle
        return times
    at = 0.0
    while True:
        if profile.arrival == "poisson":
            at += float(rng.exponential(1.0 / rate))
        else:  # uniform
            at += float(rng.uniform(0.5 / rate, 1.5 / rate))
        if at >= profile.duration_s:
            return times
        times.append(at)


def generate_trace(profile: LoadProfile,
                   stations: Sequence[str],
                   stream_prefix: str = "loadgen") -> RequestTrace:
    """Generate the full arrival-ordered workload for ``stations``.

    Each station's arrivals, request kinds and probe voltages come
    from its own named seed stream, merged by ``(arrival time, station,
    per-station index)`` and numbered in that global order.  A request's
    kind is one ``random()`` draw looked up in the mix's cumulative
    distribution, built once per trace: the same kind and generator
    state ``Generator.choice(4, p=mix.probabilities())`` gives, without
    its per-call checks.

    ``stream_prefix`` names the stream family (default ``"loadgen"``,
    the historical streams — existing trace digests are unchanged).
    The dynamic-world timeline passes ``world.epoch<k>`` so each
    epoch's load is its own replayable stream and epochs never share
    draws with each other or with the steady-state generator.
    """
    names = tuple(stations)
    if not names:
        raise ValueError("need at least one station")
    if len(set(names)) != len(names):
        raise ValueError("station names must be unique")
    rate = profile.rate_rps / len(names)
    low_v, high_v = BIAS_SAMPLE_RANGE_V
    # ``Generator.choice(p=...)`` normalizes this CDF on every call and
    # then makes exactly this draw; build it once per trace.
    kind_cdf = profile.mix.probabilities().cumsum()
    kind_cdf /= kind_cdf[-1]

    drafts: List[Tuple[float, str, int, str, float, float]] = []
    for station in names:
        rng = np.random.default_rng(
            stream_seed(profile.seed, f"{stream_prefix}.{station}"))
        for index, at in enumerate(_arrival_times(profile, rate, rng)):
            kind = REQUEST_KINDS[int(kind_cdf.searchsorted(
                rng.random(), side="right"))]
            vx = float(rng.uniform(low_v, high_v))
            vy = float(rng.uniform(low_v, high_v))
            drafts.append((at, station, index, kind, vx, vy))

    drafts.sort(key=lambda draft: (draft[0], draft[1], draft[2]))
    requests = tuple(
        Request(request_id=request_id, kind=kind, station=station,
                arrival_s=at, vx=vx, vy=vy, strategy=profile.strategy)
        for request_id, (at, station, _index, kind, vx, vy)
        in enumerate(drafts))
    return RequestTrace(requests=requests)


__all__ = [
    "ARRIVAL_PROCESSES",
    "BIAS_SAMPLE_RANGE_V",
    "LoadProfile",
    "MEASURE_ONLY",
    "RequestMix",
    "generate_trace",
    "station_names",
]
