"""The fleet API: many links, one session, one NumPy pass.

PRs 1-3 gave a *single* link a fully batched measurement plane
(:class:`~repro.api.session.LinkSession` over the N-D
:class:`~repro.channel.grid.ProbeGrid` engine).  The paper's Sec. 7
deployment story — dense multi-station TDMA scheduling, polarization
reuse, access control — needs the same treatment for a *fleet* of
links, and that is what this module provides:

* :class:`StationSpec` / :class:`FleetSpec` — declarative, serializable
  scenario specs.  A whole deployment (random home, office, arbitrary
  scenario file) is a plain dataclass with a ``to_dict``/``from_dict``
  JSON round-trip, so deployments are constructible, diffable and
  shippable without touching constructor plumbing.
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

import json
import warnings
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.backend import LinkBackend
from repro.api.session import LinkSession
from repro.channel.ensemble import LinkEnsemble
from repro.channel.grid import ProbeGrid
from repro.constants import DEFAULT_CENTER_FREQUENCY_HZ
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
from repro.metasurface.design import (
    fr4_naive_design,
    llama_design,
    rogers_reference_design,
)
from repro.network.access_control import (
    AccessControlResult,
    polarization_access_control,
)
from repro.network.deployment import (
    DenseDeployment,
    StationPlacement,
    _validate_deployment,
    _validate_station,
)
from repro.network.scheduler import (
    FixedBiasScheduler,
    PerStationScheduler,
    PolarizationReuseScheduler,
    ScheduleResult,
    baseline_without_surface,
)

#: Named metasurface designs a :class:`FleetSpec` can reference; the
#: name is what serializes, the factory builds the shared surface.
SURFACE_DESIGNS: Dict[str, Callable] = {
    "llama": llama_design,
    "fr4-naive": fr4_naive_design,
    "rogers": rogers_reference_design,
}


@dataclass(frozen=True)
class StationSpec:
    """Declarative description of one station in a fleet.

    The serializable twin of
    :class:`~repro.network.deployment.StationPlacement`: same fields,
    plus the dict/JSON round-trip the scenario-file layer needs.
    """

    name: str
    distance_m: float
    orientation_deg: float
    tx_power_dbm: float = 14.0
    traffic_demand_mbps: float = 10.0

    def __post_init__(self) -> None:
        _validate_station(self)

    def to_dict(self) -> Dict[str, Union[str, float]]:
        """Plain-data form (JSON-ready)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "StationSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(**dict(data))

    def to_placement(self) -> StationPlacement:
        """The deployment-layer placement this spec describes."""
        return StationPlacement(
            name=self.name, distance_m=self.distance_m,
            orientation_deg=self.orientation_deg,
            tx_power_dbm=self.tx_power_dbm,
            traffic_demand_mbps=self.traffic_demand_mbps)

    @classmethod
    def from_placement(cls, placement: StationPlacement) -> "StationSpec":
        """Lift a deployment-layer placement into a spec."""
        return cls(name=placement.name, distance_m=placement.distance_m,
                   orientation_deg=placement.orientation_deg,
                   tx_power_dbm=placement.tx_power_dbm,
                   traffic_demand_mbps=placement.traffic_demand_mbps)


@dataclass(frozen=True)
class TopologySpec:
    """Provenance of a generated fleet: which family, which knobs.

    Attached to a :class:`FleetSpec` by the deployment-topology
    generators (:mod:`repro.world.topology`) so a generated scenario
    file is self-describing — the family name plus the exact generator
    parameters survive the ``to_dict``/``from_json`` round-trip.
    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs
    (scalar values only) so the spec stays frozen and hashable.
    """

    family: str
    params: Tuple[Tuple[str, Union[str, int, float, bool]], ...] = ()

    def __post_init__(self) -> None:
        if not self.family:
            raise ValueError("topology family must be non-empty")
        pairs = []
        for name, value in self.params:
            if not isinstance(name, str) or not name:
                raise ValueError("topology parameter names must be strings")
            if not isinstance(value, (str, int, float, bool)):
                raise ValueError(
                    f"topology parameter {name!r} must be a scalar, "
                    f"got {value!r}")
            pairs.append((name, value))
        object.__setattr__(self, "params", tuple(sorted(pairs)))

    @classmethod
    def of(cls, family: str, **params: Union[str, int, float, bool]
           ) -> "TopologySpec":
        """Build from keyword generator parameters."""
        return cls(family=family, params=tuple(params.items()))

    def as_mapping(self) -> Dict[str, Union[str, int, float, bool]]:
        """The generator parameters as a plain dict."""
        return dict(self.params)

    def to_dict(self) -> Dict:
        """Plain-data form (JSON-ready)."""
        return {"family": self.family, "params": self.as_mapping()}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TopologySpec":
        """Rebuild from :meth:`to_dict` output."""
        return cls(family=data["family"],
                   params=tuple(dict(data.get("params", {})).items()))


@dataclass(frozen=True)
class FleetSpec:
    """Declarative description of a whole deployment.

    Everything a :class:`FleetSession` needs, as plain data: the
    stations, the shared surface (by design name, so it serializes),
    the access point's polarization orientation, the carrier and the
    multipath seed — plus, for generated deployments, the
    :class:`TopologySpec` provenance.  ``spec -> to_dict -> from_dict``
    round-trips to an equal spec, and two sessions built from equal
    specs produce identical
    :class:`~repro.network.scheduler.ScheduleResult`\\ s.
    """

    stations: Tuple[StationSpec, ...]
    surface: str = "llama"
    ap_orientation_deg: float = 0.0
    frequency_hz: float = DEFAULT_CENTER_FREQUENCY_HZ
    environment_seed: int = 2021
    topology: Optional[TopologySpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "stations", tuple(self.stations))
        if not self.stations:
            raise ValueError("a fleet needs at least one station")
        names = [station.name for station in self.stations]
        if len(set(names)) != len(names):
            raise ValueError("station names must be unique")
        if self.surface not in SURFACE_DESIGNS:
            raise ValueError(
                f"unknown surface design {self.surface!r}; expected one of "
                f"{sorted(SURFACE_DESIGNS)}")
        _validate_deployment(self.ap_orientation_deg, self.frequency_hz,
                             self.environment_seed)
        # A NumPy integer seed is valid; store it as ``int`` so the spec
        # still serializes.
        object.__setattr__(self, "environment_seed",
                           int(self.environment_seed))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def station_names(self) -> Tuple[str, ...]:
        """Station names in stacking order."""
        return tuple(station.name for station in self.stations)

    def station(self, name: str) -> StationSpec:
        """Look up one station spec by name."""
        for station in self.stations:
            if station.name == name:
                return station
        raise KeyError(f"unknown station {name!r}")

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """Plain-data form (JSON-ready)."""
        data = {
            "stations": [station.to_dict() for station in self.stations],
            "surface": self.surface,
            "ap_orientation_deg": self.ap_orientation_deg,
            "frequency_hz": self.frequency_hz,
            "environment_seed": self.environment_seed,
        }
        if self.topology is not None:
            data["topology"] = self.topology.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "FleetSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        payload = dict(data)
        stations = tuple(StationSpec.from_dict(station)
                         for station in payload.pop("stations"))
        topology = payload.pop("topology", None)
        if topology is not None and not isinstance(topology, TopologySpec):
            topology = TopologySpec.from_dict(topology)
        return cls(stations=stations, topology=topology, **payload)

    def to_json(self, **dumps_kwargs) -> str:
        """Serialize to a JSON scenario document."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, document: str) -> "FleetSpec":
        """Parse a JSON scenario document."""
        return cls.from_dict(json.loads(document))

    # ------------------------------------------------------------------ #
    # Factories
    # ------------------------------------------------------------------ #
    @classmethod
    def from_deployment(cls, deployment: DenseDeployment,
                        surface: Optional[str] = None,
                        topology: Optional[TopologySpec] = None
                        ) -> "FleetSpec":
        """Best-effort spec of an existing deployment.

        The shared surface object itself does not serialize: ``surface``
        names the design to rebuild, and when omitted it is detected by
        matching the deployment's surface against the named
        :data:`SURFACE_DESIGNS`.  A surface no named design reproduces
        falls back to ``"llama"`` with a ``UserWarning`` — round-tripping
        such a spec changes the physics, so callers holding a custom
        surface should keep the deployment object itself.  ``topology``
        records the generator provenance (family + parameters) for
        deployments built by :mod:`repro.world.topology`; it rides
        through the dict/JSON round-trip untouched.
        """
        if surface is None:
            surface_name = deployment.metasurface.name
            matches = [key for key, design in SURFACE_DESIGNS.items()
                       if design().build().name == surface_name]
            if matches:
                surface = matches[0]
            else:
                warnings.warn(
                    f"deployment surface {surface_name!r} matches no named "
                    "design; the spec records the default 'llama' surface "
                    "and will not rebuild this deployment's physics",
                    UserWarning, stacklevel=2)
                surface = "llama"
        return cls(
            stations=tuple(StationSpec.from_placement(station)
                           for station in deployment.stations),
            surface=surface,
            ap_orientation_deg=deployment.ap_orientation_deg,
            frequency_hz=deployment.frequency_hz,
            environment_seed=deployment.environment_seed,
            topology=topology)

    @classmethod
    def random_home(cls, station_count: int = 6, seed: int = 7,
                    surface: str = "llama") -> "FleetSpec":
        """A reproducible random smart-home fleet.

        The declarative twin of
        :meth:`~repro.network.deployment.DenseDeployment.random_home`
        (same seeded draws, lifted into a spec so the scenario
        serializes).
        """
        deployment = DenseDeployment.random_home(station_count=station_count,
                                                 seed=seed)
        return cls.from_deployment(deployment, surface=surface)

    @classmethod
    def office(cls, station_count: int = 12, seed: int = 42,
               surface: str = "llama") -> "FleetSpec":
        """A reproducible office fleet: denser, farther, lower power.

        Sensors and badges spread 4-15 m from the AP at 0 dBm — the
        regime where mismatched stations sit on the 802.11g rate cliff
        and the surface's polarization correction buys throughput.
        """
        if station_count < 1:
            raise ValueError("need at least one station")
        rng = np.random.default_rng(seed)
        stations = tuple(
            StationSpec(
                name=f"desk-{index}",
                distance_m=float(rng.uniform(4.0, 15.0)),
                orientation_deg=float(rng.uniform(0.0, 180.0)),
                tx_power_dbm=0.0,
                traffic_demand_mbps=float(rng.uniform(0.5, 8.0)),
            )
            for index in range(station_count)
        )
        return cls(stations=stations, surface=surface, environment_seed=seed)

    def build(self) -> DenseDeployment:
        """Construct the deployment this spec describes."""
        return DenseDeployment(
            [station.to_placement() for station in self.stations],
            metasurface=SURFACE_DESIGNS[self.surface]().build(),
            ap_orientation_deg=self.ap_orientation_deg,
            frequency_hz=self.frequency_hz,
            environment_seed=self.environment_seed)


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


#: Scheduling strategies :meth:`FleetSession.schedule` accepts.
SCHEDULE_STRATEGIES = ("fixed-bias", "per-station", "polarization-reuse",
                       "no-surface")


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
        A :class:`FleetSpec` (declarative scenarios, the common case),
        an existing :class:`~repro.network.deployment.DenseDeployment`
        to adopt, or a sequence of :class:`StationSpec` /
        :class:`~repro.network.deployment.StationPlacement`.
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
                 fleet: Union[FleetSpec, DenseDeployment,
                              Sequence[Union[StationSpec, StationPlacement]]],
                 sweep_config: Optional[VoltageSweepConfig] = None,
                 fault_schedule: Optional[FaultSchedule] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 probe_policy: Optional[ProbePolicy] = None):
        if isinstance(fleet, DenseDeployment):
            self.spec = FleetSpec.from_deployment(fleet)
            self.deployment = fleet
        elif isinstance(fleet, FleetSpec):
            self.spec = fleet
            self.deployment = fleet.build()
        else:
            stations = tuple(
                station if isinstance(station, StationSpec)
                else StationSpec.from_placement(station)
                for station in fleet)
            self.spec = FleetSpec(stations=stations)
            self.deployment = self.spec.build()
        self.controller = CentralizedController(sweep_config,
                                                probe_policy=probe_policy)
        self.monitor = HealthMonitor()
        self.fault_schedule = fault_schedule
        self.retry_policy = retry_policy
        self._quarantined: set = set()
        self._active: Optional[Tuple[str, ...]] = None
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
                self._active = None
                self.monitor.record_quarantine(name)
        return self.active_stations

    def reinstate(self, *names: str) -> Tuple[str, ...]:
        """Return stations to service (idempotent); returns survivors."""
        for name in names:
            self.deployment.station(name)
            if name in self._quarantined:
                self._quarantined.discard(name)
                self._active = None
                self.monitor.record_reinstate(name)
        return self.active_stations

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

    def _resilient_backend(self, backend):
        """Wrap a probe backend in the configured fault/retry planes."""
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

        The serving plane's coalesced-probe entry point: a window's
        worth of measure requests (``stations`` may repeat, each
        occurrence its own stacked row) is one aligned grid, evaluated
        through the session's fault and retry planes when configured.
        With neither configured this is exactly
        :meth:`measure_aligned`'s probe — the zero-fault service parity
        the serve experiments pin to <= 1e-9 dB.
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
        """
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
        elif strategy == "polarization-reuse":
            scheduler = PolarizationReuseScheduler(
                self.deployment, epoch_duration_s=epoch_duration_s,
                bias_search_step_v=bias_search_step_v,
                orientation_tolerance_deg=orientation_tolerance_deg,
                stations=survivors)
        else:
            raise ValueError(f"unknown scheduling strategy {strategy!r}; "
                             f"expected one of {SCHEDULE_STRATEGIES}")
        result = scheduler.schedule()
        for allocation in result.allocations:
            self._last_known_good[allocation.station] = allocation.bias_pair
        return result

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
