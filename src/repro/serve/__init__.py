"""The serving layer: a surface-controller service under synthetic load.

This package turns the one-shot experiment pipeline into a
long-running service (the ROADMAP's "millions of users" direction):

* :mod:`~repro.serve.clock` — deterministic virtual time: the
  :class:`VirtualClock` event heap runs generator actors in
  ``(due time, sequence)`` order, so multi-second service runs execute
  in milliseconds and replay bit-identically.
* :mod:`~repro.serve.requests` — the typed request/response records
  and the digest-pinned :class:`RequestTrace`.
* :mod:`~repro.serve.loadgen` — the Locust-style open-loop generator:
  Poisson / uniform / burst arrivals, request-mix profiles,
  per-station seed streams.
* :mod:`~repro.serve.service` — :class:`SurfaceService`: bounded-queue
  admission control, batched probe coalescing (one stacked
  :class:`~repro.channel.grid.ProbeGrid` pass per fault-free run, per
  batch under a fault or retry plane), TDMA scheduling arbitration
  and fault-plane composition.
* :mod:`~repro.serve.metrics` — throughput / latency-percentile /
  failure-rate / batch-occupancy / queue-depth accounting.

The ``serve_capacity`` and ``serve_degradation`` experiments
(:mod:`repro.experiments.serving`) and ``python -m repro.experiments
serve`` drive all of this end to end.
"""

from repro.serve.clock import VirtualClock
from repro.serve.loadgen import (
    ARRIVAL_PROCESSES,
    MEASURE_ONLY,
    LoadProfile,
    RequestMix,
    generate_trace,
    station_names,
)
from repro.serve.metrics import LatencySummary, ServiceMetrics, percentile
from repro.serve.requests import (
    REQUEST_KINDS,
    RESPONSE_STATUSES,
    Request,
    RequestTrace,
    Response,
)
from repro.serve.service import (
    ServiceConfig,
    ServiceRunResult,
    SurfaceService,
    serve_trace,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "MEASURE_ONLY",
    "REQUEST_KINDS",
    "RESPONSE_STATUSES",
    "LatencySummary",
    "LoadProfile",
    "Request",
    "RequestMix",
    "RequestTrace",
    "Response",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceRunResult",
    "SurfaceService",
    "VirtualClock",
    "generate_trace",
    "percentile",
    "serve_trace",
    "station_names",
]
