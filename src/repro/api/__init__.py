"""Batched measurement-plane API.

This package is the public face of the reproduction's measurement
plane.  It separates *what is probed* (a
:class:`~repro.api.backend.MeasurementBackend` answering one question,
``measure_grid(ProbeGrid)``) from *what orchestrates the probing*
(controllers, estimators, schedulers and figure runners), so sweeps
are vectorized end to end and backends — simulation, noisy receivers,
recorded traces, hardware — are substitutable.

* :class:`MeasurementBackend` — the one backend protocol: received
  power at every operating point of an N-D probe grid.
* :class:`LinkBackend`, :class:`ReceiverSweepBackend` — the stock
  implementations; :class:`CallableBackend` adapts a scalar
  ``fn(vx, vy, **link_axes)`` instrument, one call per grid point.
* :class:`ProbeGrid` (re-exported from :mod:`repro.channel.grid`) — the
  named N-D operating-point grids the engine evaluates; axis names are
  ``"vx"`` / ``"vy"`` plus :data:`SWEEP_AXES`.
* :class:`LinkSession` — a facade owning the link / rotator / supply
  bundle for one configuration, replacing ad-hoc link construction.
* :class:`FleetSession` — the multi-link counterpart: N named stations
  evaluated in one NumPy pass along a leading ``station`` axis
  (measurement grids, stacked Algorithm 1, TDMA scheduling, access
  control).
* :class:`FleetSpec` / :class:`StationSpec` — declarative, serializable
  deployment scenarios (``to_dict``/``from_dict`` JSON round-trip).
* :class:`ScenarioBuilder` — fluent scenario construction
  (antennas → deployment → environment → device).
* Fault plane re-exports — :class:`FaultSpec` / :class:`FaultSchedule`
  (deterministic fault injection), :class:`RetryPolicy` /
  :class:`ProbePolicy` (resilient probing) and :class:`HealthReport`,
  the knobs both session facades accept; the full taxonomy lives in
  :mod:`repro.faults`.
* Serving-layer re-exports (lazy) — :class:`SurfaceService` /
  :class:`ServiceConfig` / :func:`serve_trace` plus the
  :class:`LoadProfile` open-loop generator and :class:`VirtualClock`;
  the full serving plane lives in :mod:`repro.serve`.
"""

from repro.api.backend import (
    CallableBackend,
    LinkBackend,
    MeasurementBackend,
    ReceiverSweepBackend,
)
from repro.api.builder import ScenarioBuilder
from repro.api.fleet import (
    SCHEDULE_STRATEGIES,
    SURFACE_DESIGNS,
    FleetBiasPlan,
    FleetSession,
    FleetSpec,
    StationSpec,
    TopologySpec,
)
from repro.api.session import LinkSession
from repro.channel.grid import GRID_AXES, GridAxis, ProbeGrid, SWEEP_AXES
from repro.faults import (
    FaultSchedule,
    FaultSpec,
    HealthReport,
    ProbePolicy,
    RetryPolicy,
)

#: Experiment-registry exports, resolved lazily (PEP 562): importing
#: ``repro.api`` for a single link must not pay for — or create an
#: import cycle with — the full experiment catalogue in
#: :mod:`repro.experiments`.
_EXPERIMENT_EXPORTS = {
    "EXPERIMENT_REGISTRY": ("repro.experiments.registry", "REGISTRY"),
    "ExperimentRegistry": ("repro.experiments.registry",
                           "ExperimentRegistry"),
    "ExperimentSpec": ("repro.experiments.registry", "ExperimentSpec"),
    "Param": ("repro.experiments.registry", "Param"),
    "ExperimentResult": ("repro.experiments.runner", "ExperimentResult"),
    "Runner": ("repro.experiments.runner", "Runner"),
    "ResultStore": ("repro.experiments.store", "ResultStore"),
    "ProgressReporter": ("repro.experiments.parallel", "ProgressReporter"),
}

#: Serving-layer exports, also lazy: the service facade sits *above*
#: the session facades (it consumes :class:`FleetSession`), so eager
#: imports here would cycle through :mod:`repro.serve` back into this
#: package.
_SERVE_EXPORTS = {
    "LoadProfile": ("repro.serve.loadgen", "LoadProfile"),
    "RequestMix": ("repro.serve.loadgen", "RequestMix"),
    "generate_trace": ("repro.serve.loadgen", "generate_trace"),
    "RequestTrace": ("repro.serve.requests", "RequestTrace"),
    "ServiceMetrics": ("repro.serve.metrics", "ServiceMetrics"),
    "ServiceConfig": ("repro.serve.service", "ServiceConfig"),
    "SurfaceService": ("repro.serve.service", "SurfaceService"),
    "serve_trace": ("repro.serve.service", "serve_trace"),
    "VirtualClock": ("repro.serve.clock", "VirtualClock"),
}


def __getattr__(name):
    entry = _EXPERIMENT_EXPORTS.get(name) or _SERVE_EXPORTS.get(name)
    if entry is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    module_name, attribute = entry
    import importlib
    return getattr(importlib.import_module(module_name), attribute)

__all__ = [
    "MeasurementBackend",
    "LinkBackend",
    "CallableBackend",
    "ReceiverSweepBackend",
    "GRID_AXES",
    "GridAxis",
    "ProbeGrid",
    "SWEEP_AXES",
    "LinkSession",
    "ScenarioBuilder",
    "SCHEDULE_STRATEGIES",
    "SURFACE_DESIGNS",
    "StationSpec",
    "TopologySpec",
    "FleetSpec",
    "FleetBiasPlan",
    "FleetSession",
    "FaultSpec",
    "FaultSchedule",
    "RetryPolicy",
    "ProbePolicy",
    "HealthReport",
    "EXPERIMENT_REGISTRY",
    "ExperimentRegistry",
    "ExperimentSpec",
    "ExperimentResult",
    "Param",
    "Runner",
    "ResultStore",
    "ProgressReporter",
    "LoadProfile",
    "RequestMix",
    "RequestTrace",
    "ServiceConfig",
    "ServiceMetrics",
    "SurfaceService",
    "VirtualClock",
    "generate_trace",
    "serve_trace",
]
