"""Dense IoT deployment model (paper Sec. 7 / conclusion).

A deployment is a set of IoT stations at different positions and —
crucially for LLAMA — different antenna orientations, all talking to one
access point through (or past) one shared metasurface.  The deployment's
data plane is *fleet-stacked*: the per-station parameters (distance,
transmit power, transmit-antenna orientation) form a
:class:`~repro.channel.ensemble.LinkEnsemble`, and
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

import math
import numbers
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.antenna import dipole_antenna
from repro.channel.ensemble import LinkEnsemble
from repro.channel.geometry import LinkGeometry
from repro.core.controller import bias_lattice, vectorized_grid_max
from repro.channel.link import DeploymentMode, LinkConfiguration, WirelessLink
from repro.channel.multipath import MultipathEnvironment
from repro.constants import DEFAULT_CENTER_FREQUENCY_HZ
from repro.devices.wifi import netgear_access_point, wifi_rate_for_rssi_mbps
from repro.metasurface.design import llama_design
from repro.metasurface.surface import Metasurface
from repro.units import positive_frequency


def _validate_station(station) -> None:
    """The field checks of :class:`StationPlacement` and its serializable
    twin :class:`repro.api.fleet.StationSpec`.

    The orientation stays free: a non-finite one anchors its own
    orientation group.
    """
    if not (math.isfinite(station.distance_m) and station.distance_m > 0):
        raise ValueError(f"distance must be positive and finite, got "
                         f"{station.distance_m!r}")
    if not math.isfinite(station.tx_power_dbm):
        raise ValueError(f"transmit power must be finite, got "
                         f"{station.tx_power_dbm!r}")
    if not (math.isfinite(station.traffic_demand_mbps)
            and station.traffic_demand_mbps > 0):
        raise ValueError(f"traffic demand must be positive and finite, got "
                         f"{station.traffic_demand_mbps!r}")


def _validate_deployment(ap_orientation_deg: float, frequency_hz: float,
                         environment_seed: int) -> None:
    """The scalar field checks of :class:`DenseDeployment` and its
    serializable twin :class:`repro.api.fleet.FleetSpec`."""
    if not math.isfinite(ap_orientation_deg):
        raise ValueError(f"AP orientation must be finite, got "
                         f"{ap_orientation_deg!r}")
    positive_frequency(frequency_hz)
    if (isinstance(environment_seed, bool)
            or not isinstance(environment_seed, numbers.Integral)
            or environment_seed < 0):
        raise ValueError(f"environment seed must be an integer >= 0, got "
                         f"{environment_seed!r}")


@dataclass(frozen=True)
class StationPlacement:
    """One IoT station in the deployment.

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

    name: str
    distance_m: float
    orientation_deg: float
    tx_power_dbm: float = 14.0
    traffic_demand_mbps: float = 10.0

    def __post_init__(self) -> None:
        _validate_station(self)


class DenseDeployment:
    """A set of stations sharing one access point and one metasurface.

    Parameters
    ----------
    stations:
        Station placements.
    metasurface:
        The shared surface (the optimized FR4 prototype by default).
    ap_orientation_deg:
        Polarization orientation of the access-point antenna.
    environment_seed:
        Seed of the shared multipath environment.
    """

    def __init__(self,
                 stations: Sequence[StationPlacement],
                 metasurface: Optional[Metasurface] = None,
                 ap_orientation_deg: float = 0.0,
                 frequency_hz: float = DEFAULT_CENTER_FREQUENCY_HZ,
                 environment_seed: int = 2021):
        if not stations:
            raise ValueError("a deployment needs at least one station")
        names = [station.name for station in stations]
        if len(set(names)) != len(names):
            raise ValueError("station names must be unique")
        _validate_deployment(ap_orientation_deg, frequency_hz,
                             environment_seed)
        self.stations: Tuple[StationPlacement, ...] = tuple(stations)
        self.metasurface = (metasurface if metasurface is not None
                            else llama_design().build())
        self.ap_orientation_deg = ap_orientation_deg
        self.frequency_hz = frequency_hz
        self.environment_seed = environment_seed
        self._station_names: Tuple[str, ...] = tuple(names)
        self._station_index: Dict[str, int] = {
            name: index for index, name in enumerate(names)}
        # All stations share the AP antenna and the (deterministic)
        # multipath environment; build each exactly once.
        self._ap_antenna = netgear_access_point(
            orientation_deg=ap_orientation_deg).antenna
        self._environment = MultipathEnvironment(
            absorber_enabled=False, rician_k_db=10.0, ray_count=12,
            seed=environment_seed)
        self._links: Dict[str, WirelessLink] = {}
        self._baselines: Dict[str, WirelessLink] = {}
        self._ensembles: Dict[bool, LinkEnsemble] = {}
        self._orientation_groups: Dict[float, Tuple[Tuple[str, ...], ...]] = {}

    # ------------------------------------------------------------------ #
    # Link construction
    # ------------------------------------------------------------------ #
    def _configuration(self, station: StationPlacement,
                       with_surface: bool) -> LinkConfiguration:
        configuration = LinkConfiguration(
            tx_antenna=dipole_antenna(orientation_deg=station.orientation_deg,
                                      name=f"{station.name} antenna"),
            rx_antenna=self._ap_antenna,
            geometry=LinkGeometry.transmissive(station.distance_m),
            frequency_hz=self.frequency_hz,
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

    def station(self, name: str) -> StationPlacement:
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
            members[anchor] = True
            unassigned &= ~members
            groups.append(tuple(names[index]
                                for index in np.flatnonzero(members)))
        return tuple(groups)

    @staticmethod
    def random_home(station_count: int = 6, seed: int = 7,
                    metasurface: Optional[Metasurface] = None) -> "DenseDeployment":
        """A reproducible random smart-home deployment.

        Stations are scattered 2-8 m from the AP with arbitrary antenna
        orientations, mimicking how end users actually deploy devices.
        """
        if station_count < 1:
            raise ValueError("need at least one station")
        rng = np.random.default_rng(seed)
        stations = [
            StationPlacement(
                name=f"station-{index}",
                distance_m=float(rng.uniform(2.0, 8.0)),
                orientation_deg=float(rng.uniform(0.0, 180.0)),
                tx_power_dbm=14.0,
                traffic_demand_mbps=float(rng.uniform(2.0, 20.0)),
            )
            for index in range(station_count)
        ]
        return DenseDeployment(stations, metasurface=metasurface, environment_seed=seed)


__all__ = ["StationPlacement", "DenseDeployment"]
