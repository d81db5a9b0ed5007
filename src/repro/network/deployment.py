"""Dense IoT deployment model (paper Sec. 7 / conclusion).

A deployment is a set of IoT stations at different positions and —
crucially for LLAMA — different antenna orientations, all talking to one
access point through (or past) one shared metasurface.

A fleet has one description, the frozen :class:`FleetSpec` of
:class:`StationSpec` records: plain data with a ``to_dict``/``from_json``
round-trip, validated once in each spec's ``__post_init__``.  The spec
types live here, next to the deployment that consumes them, and
:mod:`repro.api.fleet` re-exports them.  :class:`DenseDeployment` is
built only from a spec (``DenseDeployment(spec)`` or ``spec.build()``).

The deployment's data plane is *fleet-stacked*: the per-station
parameters (distance, transmit power, transmit-antenna orientation)
form a :class:`~repro.channel.ensemble.LinkEnsemble`, and
:meth:`DenseDeployment.ensemble_for` hands out the ensemble of any
station selection, with or without the surface.  Its one probe,
:meth:`~repro.channel.ensemble.LinkEnsemble.measure_aligned`, evaluates
**every** selected station over **every** probed bias pair in a single
NumPy pass of the link budget.  The schedulers in
:mod:`repro.network.scheduler`, the access-control search and the
:class:`repro.api.fleet.FleetSession` facade all probe through it;
:meth:`DenseDeployment.link_for` / :meth:`baseline_link_for` are the
cached scalar per-station links the parity suites compare against.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.channel.antenna import dipole_antenna
from repro.channel.ensemble import LinkEnsemble
from repro.channel.geometry import LinkGeometry
from repro.core.controller import bias_lattice, vectorized_grid_max
from repro.channel.link import DeploymentMode, LinkConfiguration, WirelessLink
from repro.channel.multipath import MultipathEnvironment
from repro.constants import DEFAULT_CENTER_FREQUENCY_HZ
from repro.devices.wifi import netgear_access_point, wifi_rate_for_rssi_mbps
from repro.metasurface.design import (
    fr4_naive_design,
    llama_design,
    rogers_reference_design,
)
from repro.units import positive_frequency

#: The spec types' public import path.  Artifacts and result-store keys
#: name a dataclass by ``module:qualname``, so the specs keep the path of
#: the module that re-exports them: payloads and store keys written
#: before the types moved here stay byte-identical and keep resolving.
_PUBLIC_MODULE = "repro.api.fleet"

#: Named metasurface designs a :class:`FleetSpec` can reference; the
#: name is what serializes, the factory builds the shared surface.
SURFACE_DESIGNS: Dict[str, Callable] = {
    "llama": llama_design,
    "fr4-naive": fr4_naive_design,
    "rogers": rogers_reference_design,
}


def _record_fields(cls, data: Mapping, record: str) -> Dict:
    """``data`` as keyword arguments of the dataclass ``cls``.

    A key that is not a field of ``cls``, or a field without a default
    that ``data`` lacks, raises ``ValueError`` naming it.
    """
    data = dict(data)
    unknown = sorted(set(data) - {field.name for field in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {record} field(s) {unknown} in {data!r}")
    missing = [field.name for field in fields(cls)
               if field.name not in data and field.default is MISSING
               and field.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {record} field(s) {missing} in {data!r}")
    return data


@dataclass(frozen=True)
class StationSpec:
    """One IoT station in the deployment.

    The name must be a string and the orientation a finite real number
    (any angle; grouping takes it modulo 180 degrees).

    Attributes
    ----------
    name:
        Station identifier.
    distance_m:
        Distance from the access point (the surface sits midway).
    orientation_deg:
        Antenna polarization orientation the user happened to deploy.
    tx_power_dbm:
        Uplink transmit power.
    traffic_demand_mbps:
        Offered load, used by the schedulers' utility metrics.
    """

    __module__ = _PUBLIC_MODULE

    name: str
    distance_m: float
    orientation_deg: float
    tx_power_dbm: float = 14.0
    traffic_demand_mbps: float = 10.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise TypeError(f"station name must be a string, got "
                            f"{self.name!r}")
        orientation = self.orientation_deg
        # A plain float skips the ABC check, which costs more than the
        # rest of a station's validation.
        if type(orientation) is not float and (
                isinstance(orientation, bool)
                or not isinstance(orientation, numbers.Real)):
            raise TypeError(f"station orientation must be a real number, "
                            f"got {orientation!r}")
        if not math.isfinite(orientation):
            raise ValueError(f"station orientation must be finite, got "
                             f"{orientation!r}")
        if not (math.isfinite(self.distance_m) and self.distance_m > 0):
            raise ValueError(f"distance must be positive and finite, got "
                             f"{self.distance_m!r}")
        if not math.isfinite(self.tx_power_dbm):
            raise ValueError(f"transmit power must be finite, got "
                             f"{self.tx_power_dbm!r}")
        if not (math.isfinite(self.traffic_demand_mbps)
                and self.traffic_demand_mbps > 0):
            raise ValueError(f"traffic demand must be positive and finite, "
                             f"got {self.traffic_demand_mbps!r}")

    def to_dict(self) -> Dict[str, Union[str, float]]:
        """Plain-data form (JSON-ready)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "StationSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        An unknown key or a missing required field raises ``ValueError``
        naming it.
        """
        return cls(**_record_fields(cls, data, "station"))


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

    __module__ = _PUBLIC_MODULE

    family: str
    params: Tuple[Tuple[str, Union[str, int, float, bool]], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.family, str):
            raise TypeError(f"topology family must be a string, got "
                            f"{self.family!r}")
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
        """Rebuild from :meth:`to_dict` output.

        An unknown key or a missing ``family`` raises ``ValueError``
        naming it; ``params`` must be a mapping (``TypeError``).
        """
        payload = _record_fields(cls, data, "topology")
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise TypeError(f"topology params must be a mapping, got "
                            f"{params!r}")
        return cls(family=payload["family"], params=tuple(params.items()))


@dataclass(frozen=True)
class FleetSpec:
    """Declarative description of a whole deployment.

    Everything a :class:`~repro.api.fleet.FleetSession` needs, as plain
    data: the stations, the shared surface (by design name, so it
    serializes), the access point's polarization orientation, the
    carrier and the multipath seed — plus, for generated deployments,
    the :class:`TopologySpec` provenance.  ``spec -> to_dict ->
    from_dict`` round-trips to an equal spec, and two sessions built
    from equal specs produce identical
    :class:`~repro.network.scheduler.ScheduleResult`\\ s.
    """

    __module__ = _PUBLIC_MODULE

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
        for station in self.stations:
            if not isinstance(station, StationSpec):
                raise TypeError(
                    f"fleet stations must be StationSpec records (use "
                    f"StationSpec.from_dict for the dict form), got "
                    f"{station!r}")
        names = [station.name for station in self.stations]
        if len(set(names)) != len(names):
            raise ValueError("station names must be unique")
        if self.surface not in SURFACE_DESIGNS:
            raise ValueError(
                f"unknown surface design {self.surface!r}; expected one of "
                f"{sorted(SURFACE_DESIGNS)}")
        if not math.isfinite(self.ap_orientation_deg):
            raise ValueError(f"AP orientation must be finite, got "
                             f"{self.ap_orientation_deg!r}")
        positive_frequency(self.frequency_hz)
        seed = self.environment_seed
        if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
                or seed < 0):
            raise ValueError(f"environment seed must be an integer >= 0, "
                             f"got {seed!r}")
        # A NumPy integer seed is valid; store it as ``int`` so the spec
        # still serializes.
        object.__setattr__(self, "environment_seed", int(seed))

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
        """Rebuild a spec from :meth:`to_dict` output.

        An unknown key or a missing ``stations`` list raises
        ``ValueError`` naming it, as does a bad station record.
        """
        payload = _record_fields(cls, data, "fleet")
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
    def _scattered(cls, prefix: str, station_count: int, seed: int,
                   surface: str, distance_m: Tuple[float, float],
                   tx_power_dbm: float,
                   traffic_demand_mbps: Tuple[float, float]) -> "FleetSpec":
        """Stations drawn uniformly (distance, orientation, demand, in
        that order per station) from one seeded RNG."""
        rng = np.random.default_rng(seed)
        stations = tuple(
            StationSpec(
                name=f"{prefix}-{index}",
                distance_m=float(rng.uniform(*distance_m)),
                orientation_deg=float(rng.uniform(0.0, 180.0)),
                tx_power_dbm=tx_power_dbm,
                traffic_demand_mbps=float(rng.uniform(*traffic_demand_mbps)),
            )
            for index in range(station_count)
        )
        return cls(stations=stations, surface=surface, environment_seed=seed)

    @classmethod
    def random_home(cls, station_count: int = 6, seed: int = 7,
                    surface: str = "llama") -> "FleetSpec":
        """A reproducible random smart-home fleet.

        Stations are scattered 2-8 m from the AP at 14 dBm with arbitrary
        antenna orientations, mimicking how end users actually deploy
        devices.
        """
        return cls._scattered("station", station_count, seed, surface,
                              distance_m=(2.0, 8.0), tx_power_dbm=14.0,
                              traffic_demand_mbps=(2.0, 20.0))

    @classmethod
    def office(cls, station_count: int = 12, seed: int = 42,
               surface: str = "llama") -> "FleetSpec":
        """A reproducible office fleet: denser, farther, lower power.

        Sensors and badges spread 4-15 m from the AP at 0 dBm — the
        regime where mismatched stations sit on the 802.11g rate cliff
        and the surface's polarization correction buys throughput.
        """
        return cls._scattered("desk", station_count, seed, surface,
                              distance_m=(4.0, 15.0), tx_power_dbm=0.0,
                              traffic_demand_mbps=(0.5, 8.0))

    def build(self) -> "DenseDeployment":
        """Construct the deployment this spec describes."""
        return DenseDeployment(self)


class DenseDeployment:
    """A set of stations sharing one access point and one metasurface.

    Parameters
    ----------
    spec:
        The :class:`FleetSpec` to build: its stations, the named shared
        surface, the access point's polarization orientation, the carrier
        and the seed of the shared multipath environment.
    """

    def __init__(self, spec: FleetSpec):
        if not isinstance(spec, FleetSpec):
            raise TypeError(f"a deployment is built from a FleetSpec, got "
                            f"{type(spec).__name__}")
        self.spec = spec
        self.stations: Tuple[StationSpec, ...] = spec.stations
        self.metasurface = SURFACE_DESIGNS[spec.surface]().build()
        self._station_names = spec.station_names
        self._station_index: Dict[str, int] = {
            name: index for index, name in enumerate(self._station_names)}
        # All stations share the AP antenna and the (deterministic)
        # multipath environment; build each exactly once.
        self._ap_antenna = netgear_access_point(
            orientation_deg=spec.ap_orientation_deg).antenna
        self._environment = MultipathEnvironment.indoor(
            seed=spec.environment_seed)
        self._links: Dict[str, WirelessLink] = {}
        self._baselines: Dict[str, WirelessLink] = {}
        self._ensembles: Dict[bool, LinkEnsemble] = {}
        self._orientation_groups: Dict[float, Tuple[Tuple[str, ...], ...]] = {}

    # ------------------------------------------------------------------ #
    # Link construction
    # ------------------------------------------------------------------ #
    def _configuration(self, station: StationSpec,
                       with_surface: bool) -> LinkConfiguration:
        configuration = LinkConfiguration(
            tx_antenna=dipole_antenna(orientation_deg=station.orientation_deg,
                                      name=f"{station.name} antenna"),
            rx_antenna=self._ap_antenna,
            geometry=LinkGeometry.transmissive(station.distance_m),
            frequency_hz=self.spec.frequency_hz,
            tx_power_dbm=station.tx_power_dbm,
            bandwidth_hz=20e6,
            environment=self._environment,
            metasurface=self.metasurface if with_surface else None,
            deployment=(DeploymentMode.TRANSMISSIVE if with_surface
                        else DeploymentMode.NONE),
        )
        return configuration

    def link_for(self, station_name: str) -> WirelessLink:
        """With-surface uplink of one station (built once, cached)."""
        if station_name not in self._links:
            station = self.station(station_name)
            self._links[station_name] = WirelessLink(
                self._configuration(station, with_surface=True))
        return self._links[station_name]

    def baseline_link_for(self, station_name: str) -> WirelessLink:
        """No-surface uplink of one station (built once, cached)."""
        if station_name not in self._baselines:
            station = self.station(station_name)
            self._baselines[station_name] = WirelessLink(
                self._configuration(station, with_surface=False))
        return self._baselines[station_name]

    def station(self, name: str) -> StationSpec:
        """Look up a station by name (O(1))."""
        try:
            return self.stations[self._station_index[name]]
        except KeyError:
            raise KeyError(f"unknown station {name!r}") from None

    def station_index(self, name: str) -> int:
        """Position of a station on the fleet's stacked station axis."""
        try:
            return self._station_index[name]
        except KeyError:
            raise KeyError(f"unknown station {name!r}") from None

    @property
    def station_names(self) -> Tuple[str, ...]:
        """Station names in stacking order."""
        return self._station_names

    # ------------------------------------------------------------------ #
    # The fleet-stacked data plane
    # ------------------------------------------------------------------ #
    def ensemble_for(self, names: Optional[Sequence[str]] = None,
                     with_surface: bool = True) -> LinkEnsemble:
        """The stacked link ensemble of a set of stations.

        ``names``, a sequence of station names (a bare name raises
        ``TypeError``), selects and orders the stations on the leading
        axis; ``None`` stacks the whole deployment.  Only the two whole-fleet
        ensembles (with and without the surface) are built and cached.
        Any other selection is a row view of one of them: a new ensemble
        carrying the selected rows of the per-station arrays over the
        same shared base link, so the direct/clutter field caches are
        computed once for the entire fleet.  Names may repeat (each
        occurrence is its own row).  An explicit empty
        selection yields a zero-station ensemble (every stacked probe
        returns an empty leading axis) — the degenerate fleet a
        fully-quarantined scheduler still has to evaluate.
        """
        full = self._ensembles.get(bool(with_surface))
        if full is None:
            # The per-station arrays override the template's distance,
            # power and orientation; any placement serves as the base.
            base = replace(
                self._configuration(self.stations[0],
                                    with_surface=with_surface),
                tx_antenna=dipole_antenna(name="station antenna"))
            full = self._ensembles[bool(with_surface)] = LinkEnsemble(
                base,
                distance_m=[station.distance_m for station in self.stations],
                tx_power_dbm=[station.tx_power_dbm
                              for station in self.stations],
                tx_orientation_deg=[station.orientation_deg
                                    for station in self.stations])
        if names is None:
            return full
        if isinstance(names, str):
            raise TypeError(
                f"station selections are sequences of names, got the bare "
                f"name {names!r}; pass [{names!r}]")
        names = tuple(names)
        if names == self._station_names:
            return full
        rows = [self.station_index(name) for name in names]
        return LinkEnsemble(full.link, **{
            parameter: full.parameter(parameter)[rows] for parameter
            in ("distance_m", "tx_power_dbm", "tx_orientation_deg")})

    def best_bias_per_station(self, step_v: float = 5.0,
                              names: Optional[Sequence[str]] = None
                              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grid-search every station's best bias pair in one stacked pass.

        Returns ``(vx, vy, rssi_dbm)`` arrays aligned with the station
        axis: element ``i`` is the first maximum of station ``i``'s row
        over the vx-major lattice (NaN never wins).
        """
        levels = bias_lattice(step_v)
        vx_grid, vy_grid = np.meshgrid(levels, levels, indexing="ij")
        vx_flat, vy_flat = vx_grid.ravel(), vy_grid.ravel()
        powers = self.ensemble_for(names).measure_aligned(vx_flat[None],
                                                          vy_flat[None])
        masked = np.where(np.isnan(powers), -np.inf, powers)
        best = np.argmax(masked, axis=1)
        rows = np.arange(powers.shape[0])
        return vx_flat[best], vy_flat[best], powers[rows, best]

    def compromise_bias(self, names: Optional[Sequence[str]] = None,
                        step_v: float = 5.0) -> Tuple[float, float]:
        """Bias pair maximizing the summed rate of a set of stations.

        The whole (Vx, Vy) grid crossed with the whole station set is
        one stacked probe; the per-station utilities reduce over the
        leading station axis.
        """
        levels = bias_lattice(step_v)
        ensemble = self.ensemble_for(names)
        vx_flat, vy_flat, _utility, best_index = vectorized_grid_max(
            levels, levels, lambda vx, vy: wifi_rate_for_rssi_mbps(
                ensemble.measure_aligned(vx[None], vy[None])).sum(axis=0))
        return (float(vx_flat[best_index]), float(vy_flat[best_index]))

    def orientation_groups(self, tolerance_deg: float = 20.0) -> List[List[str]]:
        """Cluster stations whose antenna orientations are similar.

        Stations within ``tolerance_deg`` of a group's first member share
        a group; this is the "polarization reuse" structure the
        polarization-reuse scheduler exploits (one bias pair can serve a
        whole group well).  The lowest-index unassigned station anchors
        each next group and claims every unassigned station in tolerance.
        The stations are fixed, so each tolerance is clustered once;
        every call returns fresh lists.
        """
        if not tolerance_deg > 0:  # NaN fails too
            raise ValueError("tolerance must be positive")
        groups = self._orientation_groups.get(tolerance_deg)
        if groups is None:
            groups = self._orientation_groups[tolerance_deg] = (
                self._cluster_orientations(tolerance_deg))
        return [list(group) for group in groups]

    def _cluster_orientations(self, tolerance_deg: float
                              ) -> Tuple[Tuple[str, ...], ...]:
        names = self.station_names
        orientations = np.array([station.orientation_deg % 180.0
                                 for station in self.stations])
        unassigned = np.ones(len(names), dtype=bool)
        groups = []
        while unassigned.any():
            anchor = int(np.argmax(unassigned))
            difference = np.abs(orientations - orientations[anchor]) % 180.0
            difference = np.minimum(difference, 180.0 - difference)
            members = unassigned & (difference <= tolerance_deg)
            unassigned &= ~members
            groups.append(tuple(names[index]
                                for index in np.flatnonzero(members)))
        return tuple(groups)


__all__ = [
    "SURFACE_DESIGNS",
    "StationSpec",
    "TopologySpec",
    "FleetSpec",
    "DenseDeployment",
]
