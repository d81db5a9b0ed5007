"""The fleet API: many links, one session, one NumPy pass.

PRs 1-3 gave a *single* link a fully batched measurement plane
(:class:`~repro.api.session.LinkSession` over the N-D
:class:`~repro.channel.grid.ProbeGrid` engine).  The paper's Sec. 7
deployment story — dense multi-station TDMA scheduling, polarization
reuse, access control — needs the same treatment for a *fleet* of
links, and that is what this module provides:

* :class:`StationSpec` / :class:`FleetSpec` — the one description of a
  fleet.  A whole deployment (random home, office, arbitrary scenario
  file) is a plain dataclass with a ``to_dict``/``from_dict`` JSON
  round-trip, so deployments are constructible, diffable and shippable
  without touching constructor plumbing.  The spec types (and
  :data:`SURFACE_DESIGNS`) are defined in
  :mod:`repro.network.deployment`, next to the
  :class:`~repro.network.deployment.DenseDeployment` built from them,
  and re-exported here.
* :class:`FleetSession` — the multi-link counterpart of
  :class:`LinkSession`.  It owns N named stations and evaluates **all
  of them in one NumPy pass** by stacking the per-station parameters
  (distance / transmit power / antenna orientation) along a leading
  ``station`` axis of the grid engine
  (:class:`~repro.channel.ensemble.LinkEnsemble`):
  :meth:`~FleetSession.measure_aligned` probes every station over every
  bias pair at once, :meth:`~FleetSession.optimize_grid` runs Algorithm
  1 for every station simultaneously (one batched probe per refinement
  iteration), and :meth:`~FleetSession.schedule` drives the TDMA
  schedulers of :mod:`repro.network.scheduler` on the stacked planes.

Migration from the per-station loop idiom::

    # before: one facade per station, a Python loop per probe
    for station in stations:
        session = LinkSession(configuration_for(station))
        powers[station] = session.measure_grid(
            ProbeGrid.aligned(vx=vx, vy=vy))

    # after: one fleet, one pass
    fleet = FleetSession(FleetSpec.random_home(station_count=8))
    powers = fleet.measure_aligned(vx[None], vy[None])  # (8,) + grid shape
    schedule = fleet.schedule("polarization-reuse")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.backend import LinkBackend
from repro.api.session import LinkSession
from repro.channel.ensemble import LinkEnsemble
from repro.channel.grid import ProbeGrid
from repro.core.controller import (
    CentralizedController,
    GridSweepResult,
    VoltageSweepConfig,
)
from repro.faults import (
    FaultSchedule,
    FaultyBackend,
    HealthMonitor,
    HealthReport,
    ProbePolicy,
    RetryingBackend,
    RetryPolicy,
    StationChurn,
)
from repro.network.access_control import (
    AccessControlResult,
    polarization_access_control,
)
from repro.network.deployment import (
    SURFACE_DESIGNS,
    DenseDeployment,
    FleetSpec,
    StationSpec,
    TopologySpec,
)
from repro.network.scheduler import (
    FixedBiasScheduler,
    PerStationScheduler,
    PolarizationReuseScheduler,
    ScheduleResult,
    baseline_without_surface,
    check_schedule_arguments,
)

@dataclass(frozen=True)
class FleetBiasPlan:
    """Per-station optimal bias pairs found by one stacked search."""

    station_names: Tuple[str, ...]
    best_vx: np.ndarray
    best_vy: np.ndarray
    best_power_dbm: np.ndarray

    def __post_init__(self) -> None:
        for name in ("best_vx", "best_vy", "best_power_dbm"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))

    def bias_for(self, station: str) -> Tuple[float, float]:
        """The (vx, vy) pair chosen for one station."""
        index = self.station_names.index(station)
        return (float(self.best_vx[index]), float(self.best_vy[index]))

    def power_for(self, station: str) -> float:
        """The power the chosen pair achieves for one station."""
        return float(self.best_power_dbm[self.station_names.index(station)])

    def __iter__(self):
        """Iterate ``(station, vx, vy, power_dbm)`` rows."""
        return iter(zip(self.station_names, self.best_vx.tolist(),
                        self.best_vy.tolist(),
                        self.best_power_dbm.tolist()))


#: How many of :meth:`FleetSession.schedule`'s numeric arguments (epoch
#: duration, bias step, orientation tolerance, in that order) each
#: strategy reads; an epoch is memoized on those alone.
_ARGUMENTS_READ = {"fixed-bias": 2, "per-station": 2,
                   "polarization-reuse": 3, "no-surface": 0}

#: Scheduling strategies :meth:`FleetSession.schedule` accepts.
SCHEDULE_STRATEGIES = tuple(_ARGUMENTS_READ)


class FleetSession:
    """A measurement/scheduling session over a fleet of links.

    The multi-link counterpart of :class:`~repro.api.session.LinkSession`:
    it owns N named stations (each a
    :class:`~repro.channel.link.LinkConfiguration` derived from the
    shared base), and every probe — measurement grids, Algorithm 1
    searches, scheduler utility scans — evaluates **all stations in one
    NumPy pass** along a leading ``station`` axis.

    Parameters
    ----------
    fleet:
        The :class:`FleetSpec` describing the stations and the shared
        surface; the session builds its own
        :class:`~repro.network.deployment.DenseDeployment` from it.
    sweep_config:
        Controller search parameters for :meth:`optimize_grid`
        (Algorithm 1 defaults).
    fault_schedule:
        Optional :class:`~repro.faults.FaultSchedule`; when active, the
        stacked probe backends of :meth:`optimize_grid` run through the
        deterministic fault plane.
    retry_policy:
        Optional :class:`~repro.faults.RetryPolicy` wrapping those
        probes in virtual-clock retries.
    probe_policy:
        Optional :class:`~repro.faults.ProbePolicy` for median-of-k
        probe re-voting inside the stacked Algorithm 1 searches.
    """

    def __init__(self,
                 fleet: FleetSpec,
                 sweep_config: Optional[VoltageSweepConfig] = None,
                 fault_schedule: Optional[FaultSchedule] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 probe_policy: Optional[ProbePolicy] = None):
        self.deployment = DenseDeployment(fleet)
        self.spec = fleet
        self.controller = CentralizedController(sweep_config,
                                                probe_policy=probe_policy)
        self.monitor = HealthMonitor()
        self.fault_schedule = fault_schedule
        self.retry_policy = retry_policy
        self._quarantined: set = set()
        self._active: Optional[Tuple[str, ...]] = None
        # Keyed on the strategy and the arguments it reads.
        self._epochs: Dict[Tuple[object, ...], ScheduleResult] = {}
        self._last_known_good: Dict[str, Tuple[float, float]] = {}
        self._sessions: Dict[str, LinkSession] = {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def station_names(self) -> Tuple[str, ...]:
        """Station names, in the order of the stacked station axis."""
        return self.deployment.station_names

    @property
    def station_count(self) -> int:
        """Number of stations in the fleet."""
        return len(self.deployment.stations)

    @property
    def ensemble(self) -> LinkEnsemble:
        """The stacked with-surface ensemble of the whole fleet."""
        return self.deployment.ensemble_for()

    @property
    def baseline_ensemble(self) -> LinkEnsemble:
        """The stacked no-surface ensemble of the whole fleet."""
        return self.deployment.ensemble_for(with_surface=False)

    def station_index(self, name: str) -> int:
        """Position of a station on the stacked station axis."""
        return self.deployment.station_index(name)

    # ------------------------------------------------------------------ #
    # Resilience plane: quarantine, churn, health
    # ------------------------------------------------------------------ #
    @property
    def active_stations(self) -> Tuple[str, ...]:
        """Stations currently in service (fleet order, minus quarantine)."""
        if self._active is None:
            self._active = tuple(name for name in self.station_names
                                 if name not in self._quarantined)
        return self._active

    @property
    def quarantined_stations(self) -> Tuple[str, ...]:
        """Stations currently quarantined, in quarantine order."""
        return self.monitor.quarantined

    @property
    def health(self) -> HealthReport:
        """Probe / retry / fault / quarantine accounting for this fleet."""
        return self.monitor.report()

    def quarantine(self, *names: str) -> Tuple[str, ...]:
        """Take stations out of service (idempotent); returns survivors.

        Quarantined stations keep their last-known-good bias pair (see
        :meth:`last_known_good_bias`) so a recovering station can be
        re-biased without a fresh search; every scheduling and stacked
        search entry point then runs on the survivor subset only.
        """
        for name in names:
            self.deployment.station(name)  # KeyError for unknown names
            if name not in self._quarantined:
                self._quarantined.add(name)
                self._survivors_changed()
                self.monitor.record_quarantine(name)
        return self.active_stations

    def reinstate(self, *names: str) -> Tuple[str, ...]:
        """Return stations to service (idempotent); returns survivors."""
        for name in names:
            self.deployment.station(name)
            if name in self._quarantined:
                self._quarantined.discard(name)
                self._survivors_changed()
                self.monitor.record_reinstate(name)
        return self.active_stations

    def _survivors_changed(self) -> None:
        """Drop everything derived from the survivor set."""
        self._active = None
        self._epochs.clear()

    def apply_churn(self, churn: Union[StationChurn, Sequence[str]]
                    ) -> Tuple[str, ...]:
        """Synchronize quarantine with a churn process's up/down state.

        ``churn`` is a :class:`~repro.faults.StationChurn` (its current
        up-set is adopted) or an explicit sequence of up-station names;
        every other fleet station is quarantined.  Returns the
        surviving stations.
        """
        if isinstance(churn, StationChurn):
            up = set(churn.up_stations)
        else:
            up = set(churn)
        for name in self.station_names:
            if name in up:
                self.reinstate(name)
            else:
                self.quarantine(name)
        return self.active_stations

    def last_known_good_bias(self, station: str
                             ) -> Optional[Tuple[float, float]]:
        """The bias pair last scheduled for a station (None if never).

        Updated by every surface-strategy :meth:`schedule` epoch and
        kept through quarantine — the state a recovered station is
        re-biased to before its next fresh search.
        """
        self.deployment.station(station)
        return self._last_known_good.get(station)

    @property
    def stateless_probes(self) -> bool:
        """Whether a probe's answer depends only on its grid.

        True with no active fault schedule and no retry policy: no probe
        then draws a fault, counts a retry or touches the health
        monitor, so probes may be merged or reordered without changing
        any answer or any later state.  :meth:`_resilient_backend` wraps
        nothing then, and the serving plane coalesces a whole run's
        probes.
        """
        return self.retry_policy is None and (
            self.fault_schedule is None or not self.fault_schedule.spec.active)

    def _resilient_backend(self, backend):
        """Wrap a probe backend in the configured fault/retry planes."""
        if self.stateless_probes:
            return backend
        if (self.fault_schedule is not None
                and self.fault_schedule.spec.active):
            backend = FaultyBackend(backend, self.fault_schedule,
                                    monitor=self.monitor)
        if self.retry_policy is not None:
            backend = RetryingBackend(backend, self.retry_policy,
                                      monitor=self.monitor,
                                      schedule=self.fault_schedule)
        return backend

    # ------------------------------------------------------------------ #
    # Measurement plane (station-stacked)
    # ------------------------------------------------------------------ #
    def measure_aligned(self, vx, vy,
                        stations: Optional[Sequence[str]] = None) -> np.ndarray:
        """Received power of every station at its bias pairs, one pass.

        The fault-free probe of the fleet.  ``stations`` selects (and
        orders) the rows, repeats allowed; ``None`` is the whole fleet.
        The voltages lead with the station axis (see
        :meth:`~repro.channel.ensemble.LinkEnsemble.measure_aligned`):
        ``(1, K)`` shares one lattice with every station and gives
        ``(S, K)``; ``(S,)`` pairs give ``(S,)``.  Row ``i`` matches a
        per-station :class:`LinkSession` probing the same voltages to
        <= 1e-9 dB (pinned by the fleet parity suite).
        """
        return self.deployment.ensemble_for(stations).measure_aligned(vx, vy)

    def probe_aligned(self, vx, vy,
                      stations: Optional[Sequence[str]] = None) -> np.ndarray:
        """:meth:`measure_aligned`, probed through the resilience planes.

        The serving plane's coalesced-probe entry point: its queued
        measure requests (``stations`` may repeat, each occurrence its
        own stacked row) are one aligned grid, evaluated through the
        session's fault and retry planes when configured.  With
        :attr:`stateless_probes` the queue holds a whole run (one call
        per run), otherwise one batch (one call per batch, so fault
        draws and retries keep their order).  With neither plane
        configured this is exactly :meth:`measure_aligned`'s probe —
        the zero-fault service parity the serve experiments pin to
        <= 1e-9 dB.
        """
        ensemble = self.deployment.ensemble_for(stations)
        backend = self._resilient_backend(LinkBackend(ensemble.link))
        return np.asarray(backend.measure_grid(ensemble.aligned_grid(vx, vy)),
                          dtype=float)

    # ------------------------------------------------------------------ #
    # Search plane (station-stacked)
    # ------------------------------------------------------------------ #
    def best_bias_plan(self, step_v: float = 5.0,
                       stations: Optional[Sequence[str]] = None
                       ) -> FleetBiasPlan:
        """Every station's best bias pair from one stacked grid search."""
        names = (self.station_names if stations is None
                 else tuple(stations))
        vx, vy, power = self.deployment.best_bias_per_station(
            step_v=step_v, names=names)
        return FleetBiasPlan(station_names=names, best_vx=vx, best_vy=vy,
                             best_power_dbm=power)

    def compromise_bias(self, stations: Optional[Sequence[str]] = None,
                        step_v: float = 5.0) -> Tuple[float, float]:
        """The single bias pair maximizing the stations' summed rate."""
        return self.deployment.compromise_bias(stations, step_v=step_v)

    def optimize_grid(self, exhaustive: bool = False,
                      step_v: float = 1.0,
                      stations: Optional[Sequence[str]] = None
                      ) -> GridSweepResult:
        """Run Algorithm 1 for every surviving station simultaneously.

        One batched probe per refinement iteration covers every
        station's voltage window; cell ``i`` of the result equals
        running :meth:`LinkSession.optimize` on station ``i`` alone
        (same grids, same first-maximum and NaN semantics).  Probes run
        through the session's fault and retry planes when configured.

        ``stations`` selects (and orders) the rows, repeats allowed;
        ``None`` runs every surviving station.  Algorithm 1 is
        independent per row, so a selection's rows equal those rows of
        the all-survivor run.  Naming an unknown station raises
        ``KeyError``, a quarantined one ``ValueError``.
        """
        names = self.active_stations if stations is None else stations
        ensemble = self.deployment.ensemble_for(names)
        quarantined = sorted(set(names) & self._quarantined)
        if quarantined:
            raise ValueError(
                f"cannot optimize quarantined stations {quarantined}")
        grid = ProbeGrid.aligned(**ensemble.station_grid(0))
        return self.controller.optimize_grid(
            self._resilient_backend(LinkBackend(ensemble.link)), grid,
            exhaustive=exhaustive, step_v=step_v)

    # ------------------------------------------------------------------ #
    # Scheduling / access-control plane
    # ------------------------------------------------------------------ #
    def schedule(self, strategy: str = "polarization-reuse",
                 epoch_duration_s: float = 60.0,
                 bias_search_step_v: float = 5.0,
                 orientation_tolerance_deg: float = 20.0) -> ScheduleResult:
        """Schedule one TDMA epoch over the fleet.

        ``strategy`` is one of :data:`SCHEDULE_STRATEGIES`; every
        surface strategy reads its bias pairs and slot RSSIs off one
        stacked probe of the survivors' bias lattice, so the whole epoch
        costs one lattice pass per epoch regardless of the station or
        orientation-group count.  Quarantined stations are excluded from the
        epoch — with every station quarantined the result is the
        well-formed empty epoch (zero throughput, vacuous fairness) —
        and each surface-strategy epoch refreshes the survivors'
        last-known-good bias pairs.

        An epoch is a pure function of the deployment, the survivors
        and the arguments the strategy reads, so it is memoized on
        those: a repeat returns the same :class:`ScheduleResult` without
        a probe (still refreshing last-known-good).  :meth:`quarantine`,
        :meth:`reinstate` and :meth:`apply_churn` clear the memo
        whenever the survivor set changes.  Every call validates all
        three numbers, whatever the strategy; errors are never memoized.
        """
        if strategy not in _ARGUMENTS_READ:
            raise ValueError(f"unknown scheduling strategy {strategy!r}; "
                             f"expected one of {SCHEDULE_STRATEGIES}")
        arguments = (epoch_duration_s, bias_search_step_v,
                     orientation_tolerance_deg)
        check_schedule_arguments(*arguments)
        key = (strategy, *arguments[:_ARGUMENTS_READ[strategy]])
        result = self._epochs.get(key)
        if result is None:
            result = self._epochs[key] = self._schedule_epoch(
                strategy, *arguments)
        if strategy != "no-surface":
            for allocation in result.allocations:
                self._last_known_good[allocation.station] = (
                    allocation.bias_pair)
        return result

    def _schedule_epoch(self, strategy: str, epoch_duration_s: float,
                        bias_search_step_v: float,
                        orientation_tolerance_deg: float) -> ScheduleResult:
        """Compute one epoch over the current survivors (no memo)."""
        survivors = self.active_stations
        if strategy == "no-surface":
            return baseline_without_surface(self.deployment,
                                            stations=survivors)
        if strategy == "fixed-bias":
            scheduler = FixedBiasScheduler(
                self.deployment, epoch_duration_s=epoch_duration_s,
                bias_search_step_v=bias_search_step_v, stations=survivors)
        elif strategy == "per-station":
            scheduler = PerStationScheduler(
                self.deployment, epoch_duration_s=epoch_duration_s,
                bias_search_step_v=bias_search_step_v, stations=survivors)
        else:
            scheduler = PolarizationReuseScheduler(
                self.deployment, epoch_duration_s=epoch_duration_s,
                bias_search_step_v=bias_search_step_v,
                orientation_tolerance_deg=orientation_tolerance_deg,
                stations=survivors)
        return scheduler.schedule()

    def schedule_all(self, epoch_duration_s: float = 60.0,
                     bias_search_step_v: float = 5.0,
                     orientation_tolerance_deg: float = 20.0
                     ) -> Dict[str, ScheduleResult]:
        """Run every strategy over one epoch (the Sec. 7 comparison)."""
        return {
            strategy: self.schedule(
                strategy, epoch_duration_s=epoch_duration_s,
                bias_search_step_v=bias_search_step_v,
                orientation_tolerance_deg=orientation_tolerance_deg)
            for strategy in SCHEDULE_STRATEGIES
        }

    def access_control(self, intended_station: str, unauthorized_station: str,
                       step_v: float = 3.0,
                       minimum_intended_rssi_dbm: Optional[float] = None
                       ) -> AccessControlResult:
        """Polarization access control between two fleet stations."""
        return polarization_access_control(
            self.deployment, intended_station, unauthorized_station,
            step_v=step_v,
            minimum_intended_rssi_dbm=minimum_intended_rssi_dbm)

    def orientation_groups(self, tolerance_deg: float = 20.0):
        """Orientation clusters (the polarization-reuse structure)."""
        return self.deployment.orientation_groups(tolerance_deg)

    # ------------------------------------------------------------------ #
    # Per-station views (migration bridge)
    # ------------------------------------------------------------------ #
    def session_for(self, station: str) -> LinkSession:
        """A single-link :class:`LinkSession` over one station (cached).

        The migration bridge for campaigns that still need the scalar
        facade (rotator/supply bundle, rotation estimation, ...); the
        fleet-stacked planes above are the fast path.
        """
        if station not in self._sessions:
            self._sessions[station] = LinkSession(
                self.deployment.link_for(station),
                sweep_config=self.controller.config)
        return self._sessions[station]


__all__ = [
    "SURFACE_DESIGNS",
    "SCHEDULE_STRATEGIES",
    "StationSpec",
    "TopologySpec",
    "FleetSpec",
    "FleetBiasPlan",
    "FleetSession",
]
