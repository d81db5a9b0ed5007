"""The surface-controller service with batched probe coalescing.

:class:`SurfaceService` wraps one :class:`~repro.api.fleet.FleetSession`
in a long-running service loop on the virtual clock's event heap: a
dispatcher actor submits typed
:class:`~repro.serve.requests.Request`\\ s into a bounded queue at
their arrival times, and a single worker actor drains it in
*coalescing windows*.  Each window is one modeled batch: its live
``measure`` and ``optimize`` requests join the run's probe queues,
``schedule`` requests read the fleet's epoch memo (so each strategy
costs one TDMA epoch per survivor set, not one per batch) and
``health`` requests read the fleet's resilience accounting.

The probe queues are resolved by one path — every queued measure row
becomes a row of one stacked aligned
:class:`~repro.channel.grid.ProbeGrid` probe
(:meth:`~repro.api.fleet.FleetSession.probe_aligned`, one budget-engine
pass), and every queued optimize request shares one stacked Algorithm 1
pass over its distinct stations — at one of two points, chosen by
:attr:`~repro.api.fleet.FleetSession.stateless_probes`:

* **Per run** (no fault or retry plane): a probe then depends only on
  its station and bias pair, and cannot move the virtual clock (service
  time is modeled from batch sizes), admission (quarantine changes only
  through explicit calls) or any later request.  The queues are
  resolved once, after the clock stops: one probe for the whole run's
  measures, one Algorithm 1 pass for all its optimize stations.
* **Per batch** (a fault or retry plane): the queues are resolved at
  the end of every batch's probe kinds, before its ``schedule`` and
  ``health`` requests, which is exactly the call sequence of probing
  each batch as it is served — fault draws, retries and health counts
  replay unchanged.

Either way a response carries its batch's completion time and live
batch size, so the responses and metrics of the two cadences are
equal.

The event loop handles plain rows, not response objects: every answer
is one ``(request, status, value, completed_s, batch_size, detail)``
tuple appended to the run's row list, and the queue-depth samples are
two lists (times and depths).  When the clock stops, the rows are
sorted by request id once and the frozen
:class:`~repro.serve.requests.Response` records are built in one
positional pass; the metrics are computed from the same rows' columns
(:meth:`~repro.serve.metrics.ServiceMetrics.from_columns`).  Arrivals
enter through :meth:`SurfaceService.submit` alone, which admits or
sheds, samples the queue and wakes the worker only when it is parked.

Three properties the experiments gate:

* **Admission control** — a queue at ``queue_capacity`` sheds new
  arrivals with a typed ``rejected``/``queue-full`` response instead
  of growing without bound; quarantined stations are refused with
  ``rejected``/``quarantined``.
* **Degradation, not crashes** — probes run through the fleet's fault
  and retry planes (:meth:`~repro.api.fleet.FleetSession.probe_aligned`);
  a retry-exhausted probe or a dropout-NaN turns into ``failed``
  responses for the affected requests while the loop keeps serving.
* **Exactness** — with no fault plane configured, every ``ok``
  measure value equals the direct
  :meth:`~repro.api.fleet.FleetSession.measure_aligned` call for the
  same trace to <= 1e-9 dB (the serve experiments pin this).

Service time is modeled, not slept: each coalesced probe epoch costs a
fixed ``probe_epoch_cost_s`` (control-channel round trip, surface
settling) plus ``point_cost_s`` per stacked point, which is what makes
batching pay — ``k`` requests in one window cost one epoch overhead
instead of ``k``.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.api.fleet import FleetSession
from repro.faults.errors import ProbeFaultError, TransientFaultError
from repro.serve.clock import Actor, VirtualClock
from repro.serve.metrics import ServiceMetrics
from repro.serve.requests import Request, RequestTrace, Response

#: Queue close marker (follows the last dispatched arrival).
_SENTINEL = None

#: One batch's live requests of one probe kind, waiting to be answered,
#: with the virtual time the batch completed (their ``batch_size`` is
#: their count).
_Queued = Tuple[float, List[Request]]

#: One answer: ``(request, status, value, completed_s, batch_size,
#: detail)``, the positional fields a :class:`Response` adds to its
#: request.
_Row = Tuple[Request, str, float, float, int, str]


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one service instance.

    ``batch_window_s = 0`` disables coalescing entirely — every request
    is served by its own probe epoch (the unbatched baseline the
    capacity benchmark compares against).
    """

    batch_window_s: float = 0.01
    queue_capacity: int = 64
    max_batch: int = 32
    probe_epoch_cost_s: float = 0.004
    point_cost_s: float = 0.0005
    optimize_cost_s: float = 0.02
    schedule_cost_s: float = 0.01
    health_cost_s: float = 0.0002
    optimize_step_v: float = 5.0

    def __post_init__(self) -> None:
        for name in ("batch_window_s", "probe_epoch_cost_s", "point_cost_s",
                     "optimize_cost_s", "schedule_cost_s", "health_cost_s",
                     "optimize_step_v"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("queue_capacity", "max_batch"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value,
                                                         numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.batch_window_s < 0.0:
            raise ValueError("batch window must be non-negative")
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max batch must be >= 1")
        for name in ("probe_epoch_cost_s", "point_cost_s",
                     "optimize_cost_s", "schedule_cost_s", "health_cost_s"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if self.optimize_step_v <= 0.0:
            raise ValueError("optimize step must be positive")


@dataclass(frozen=True)
class ServiceRunResult:
    """Everything one trace's service run produced."""

    responses: Tuple[Response, ...]
    metrics: ServiceMetrics
    trace_digest: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "responses", tuple(self.responses))

    def response_for(self, request_id: int) -> Response:
        """The response to one request (responses are id-ordered)."""
        response = self.responses[request_id]
        if response.request_id != request_id:  # defensive: never re-sorted
            for candidate in self.responses:
                if candidate.request_id == request_id:
                    return candidate
            raise KeyError(f"no response for request {request_id}")
        return response


class SurfaceService:
    """One fleet, one bounded queue, one coalescing service worker."""

    def __init__(self, fleet: FleetSession,
                 config: Optional[ServiceConfig] = None) -> None:
        self.fleet = fleet
        self.config = config if config is not None else ServiceConfig()
        self.clock = VirtualClock()
        self._queue: Deque[Optional[Request]] = deque()
        self._worker: Optional[Actor] = None
        self._worker_parked = False
        self._rows: List[_Row] = []
        self._measures: List[_Queued] = []
        self._optimizes: List[_Queued] = []
        self._queue_times: List[float] = []
        self._queue_depths: List[int] = []
        self.shed_count = 0

    # ------------------------------------------------------------------ #
    # Client plane
    # ------------------------------------------------------------------ #
    def submit(self, request: Request) -> bool:
        """Admit one request (True) or shed it with a typed rejection.

        Admission is depth-based: a queue already holding
        ``queue_capacity`` requests refuses the arrival immediately —
        the station gets its ``rejected``/``queue-full`` response at
        submit time rather than a silently growing backlog.  An admitted
        request is queued, the queue depth sampled, and the worker
        woken if it is parked on an empty queue.
        """
        queue = self._queue
        if len(queue) >= self.config.queue_capacity:
            self.shed_count += 1
            self._respond(request, "rejected", math.nan, 0, "queue-full")
            return False
        queue.append(request)
        if self._worker_parked:
            self._wake_worker()
        self._queue_times.append(self.clock.now)
        self._queue_depths.append(len(queue))
        return True

    def _wake_worker(self) -> None:
        """Ready the worker parked on an empty queue."""
        self._worker_parked = False
        self.clock.wake(self._worker)

    # ------------------------------------------------------------------ #
    # Service plane
    # ------------------------------------------------------------------ #
    def serve_trace(self, trace: RequestTrace) -> ServiceRunResult:
        """Serve one full workload to completion (the sync facade).

        Dispatches every arrival at its virtual time, runs the service
        worker until the queue closes, answers the probe requests still
        queued, and returns the id-ordered responses with their
        aggregated metrics.  Each run starts on a fresh clock at 0, the
        trace's own time origin.
        """
        self.clock = VirtualClock()
        self._rows = rows = []
        self._measures = []
        self._optimizes = []
        self._queue_times = []
        self._queue_depths = []
        self.shed_count = 0
        self._queue = deque()
        self._worker = self._serve_loop()
        self._worker_parked = False
        self.clock.run(self._worker, self._dispatch(trace))
        self._resolve()
        if len(rows) != len(trace):
            raise RuntimeError(
                f"service answered {len(rows)} of {len(trace)} "
                "requests — every submitted request must get a response")
        rows.sort(key=lambda row: row[0].request_id)
        responses = tuple([
            Response(request.request_id, request.kind, request.station,
                     status, value, request.arrival_s, completed_s,
                     batch_size, detail)
            for request, status, value, completed_s, batch_size, detail
            in rows])
        requests, statuses, _, completed, sizes, _ = (
            tuple(zip(*rows)) if rows else ((),) * 6)
        return ServiceRunResult(
            responses=responses,
            metrics=ServiceMetrics.from_columns(
                statuses, [request.arrival_s for request in requests],
                completed, sizes, self._queue_times, self._queue_depths),
            trace_digest=trace.digest())

    def _dispatch(self, trace: RequestTrace) -> Actor:
        """Open-loop arrivals: submit each request at its own instant,
        then close the queue."""
        clock = self.clock
        submit = self.submit
        for request in trace.requests:
            delay = request.arrival_s - clock.now
            if delay > 0.0:
                yield delay
            submit(request)
        self._queue.append(_SENTINEL)
        if self._worker_parked:
            self._wake_worker()

    def _serve_loop(self) -> Actor:
        """Drain the queue in coalescing windows until it closes."""
        config = self.config
        queue = self._queue
        while True:
            while not queue:
                self._worker_parked = True
                yield None  # parked until an arrival wakes it
            first = queue.popleft()
            if first is _SENTINEL:
                return
            batch = [first]
            if config.batch_window_s > 0.0:
                yield config.batch_window_s
                # The close marker stays queued for the next iteration.
                while (len(batch) < config.max_batch and queue
                       and queue[0] is not _SENTINEL):
                    batch.append(queue.popleft())
            yield from self._serve_batch(batch)
            self._queue_times.append(self.clock.now)
            self._queue_depths.append(len(queue))

    def _serve_batch(self, batch: List[Request]) -> Actor:
        """Serve one coalesced batch: model its cost, then execute it.

        Live probe requests join the run's queues, which are resolved
        here only when the fleet's probes keep state (a fault or retry
        plane), and otherwise once, after the run.
        """
        groups: Dict[str, List[Request]] = {}
        for request in batch:
            groups.setdefault(request.kind, []).append(request)
        yield self._service_time(groups)
        if "measure" in groups:
            self._enqueue(self._measures, groups["measure"])
        if "optimize" in groups:
            self._enqueue(self._optimizes, groups["optimize"])
        if not self.fleet.stateless_probes:
            self._resolve()
        if "schedule" in groups:
            self._serve_schedule(groups["schedule"])
        if "health" in groups:
            self._serve_health(groups["health"])

    def _service_time(self, groups: Dict[str, List[Request]]) -> float:
        """The modeled virtual cost of one coalesced batch."""
        config = self.config
        cost = 0.0
        if "measure" in groups:
            cost += (config.probe_epoch_cost_s
                     + len(groups["measure"]) * config.point_cost_s)
        if "optimize" in groups:
            cost += (config.optimize_cost_s
                     + len(groups["optimize"]) * config.point_cost_s)
        if "schedule" in groups:
            strategies = {request.strategy
                          for request in groups["schedule"]}
            cost += len(strategies) * config.schedule_cost_s
        if "health" in groups:
            cost += len(groups["health"]) * config.health_cost_s
        return cost

    # ------------------------------------------------------------------ #
    # Kind handlers
    # ------------------------------------------------------------------ #
    def _enqueue(self, queue: List[_Queued],
                 requests: List[Request]) -> None:
        """Queue a batch's live requests of one probe kind."""
        live = self._admit_live(requests)
        if live:
            queue.append((self.clock.now, live))

    def _resolve(self) -> None:
        """Answer every queued measure, then every queued optimize."""
        measures, self._measures = self._measures, []
        if measures:
            self._serve_measure(measures)
        optimizes, self._optimizes = self._optimizes, []
        if optimizes:
            self._serve_optimize(optimizes)

    def _serve_measure(self, queued: List[_Queued]) -> None:
        """One stacked aligned probe answers every queued measure.

        Each queued request is one row, in arrival order (a station
        may repeat); a row's value depends only on its station and
        bias pair.
        """
        requests = [request for _, live in queued for request in live]
        vx = np.asarray([request.vx for request in requests], dtype=float)
        vy = np.asarray([request.vy for request in requests], dtype=float)
        try:
            powers = self.fleet.probe_aligned(
                vx, vy, stations=[request.station for request in requests])
        except (ProbeFaultError, TransientFaultError) as error:
            self._answer(queued, repeat(math.nan), type(error).__name__)
            return
        self._answer(queued, np.asarray(powers, dtype=float).tolist())

    def _serve_optimize(self, queued: List[_Queued]) -> None:
        """One stacked Algorithm 1 pass over the queued distinct stations.

        Rows are the distinct stations in first-request order;
        Algorithm 1 runs each row on its own, so a station's optimum
        does not depend on which other stations share the pass.
        """
        stations = [request.station for _, live in queued
                    for request in live]
        rows = {name: row for row, name in enumerate(
            dict.fromkeys(stations))}
        try:
            result = self.fleet.optimize_grid(
                step_v=self.config.optimize_step_v, stations=tuple(rows))
        except (ProbeFaultError, TransientFaultError) as error:
            self._answer(queued, repeat(math.nan), type(error).__name__)
            return
        best = np.asarray(result.best_power_dbm, dtype=float).ravel().tolist()
        self._answer(queued, [best[rows[name]] for name in stations])

    def _serve_schedule(self, requests: List[Request]) -> None:
        """Answer each request with its strategy's epoch throughput.

        The fleet memoizes epochs per survivor set, so only a strategy's
        first request since the survivor set last changed probes; a
        strategy the fleet rejects fails every request that names it.
        """
        for request in requests:
            try:
                result = self.fleet.schedule(request.strategy)
            except ValueError:
                self._respond(request, status="failed", value=math.nan,
                              batch_size=len(requests),
                              detail="unknown-strategy")
            else:
                self._respond(request, status="ok",
                              value=float(result.total_throughput_mbps),
                              batch_size=len(requests))

    def _serve_health(self, requests: List[Request]) -> None:
        """Answer health probes from the fleet's resilience accounting."""
        total_faults = float(self.fleet.health.total_faults)
        for request in requests:
            self._respond(request, status="ok", value=total_faults,
                          batch_size=len(requests))

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _admit_live(self, requests: List[Request]) -> List[Request]:
        """Reject quarantined stations; return the live remainder."""
        active = set(self.fleet.active_stations)
        live: List[Request] = []
        for request in requests:
            if request.station in active:
                live.append(request)
            else:
                self._respond(request, status="rejected", value=math.nan,
                              batch_size=0, detail="quarantined")
        return live

    def _answer(self, queued: List[_Queued], powers: Iterable[float],
                failure: str = "probe-dropout") -> None:
        """Respond to the queued requests with their powers, in order.

        A NaN power fails its request with ``failure``; the row
        carries its batch's completion time and live size.
        """
        rows = self._rows
        values = iter(powers)
        for completed_s, live in queued:
            size = len(live)
            for request, power in zip(live, values):
                if math.isnan(power):
                    rows.append((request, "failed", math.nan, completed_s,
                                 size, failure))
                else:
                    rows.append((request, "ok", power, completed_s, size, ""))

    def _respond(self, request: Request, status: str, value: float,
                 batch_size: int, detail: str = "") -> None:
        """Record one answer, completed now."""
        self._rows.append((request, status, value, self.clock.now,
                           batch_size, detail))


def serve_trace(fleet: FleetSession, trace: RequestTrace,
                config: Optional[ServiceConfig] = None) -> ServiceRunResult:
    """Serve one workload on a fresh service instance (the one-liner)."""
    return SurfaceService(fleet, config=config).serve_trace(trace)


__all__ = [
    "ServiceConfig",
    "ServiceRunResult",
    "SurfaceService",
    "serve_trace",
]
