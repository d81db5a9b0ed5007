"""TDMA schedulers for a dense deployment sharing one metasurface.

The surface has a single bias state at any instant, so serving stations
with different antenna orientations is a scheduling problem: which bias
pair does the controller program in each slot, and which station
transmits?  Three strategies bracket the design space:

* :class:`FixedBiasScheduler` — the surface is tuned once (or not at
  all) and every station shares that state; the baseline for "just hang
  the panel on the wall".
* :class:`PerStationScheduler` — every slot retunes the surface for the
  scheduled station; maximum per-station RSSI but pays the retuning
  overhead (Algorithm 1 at 50 Hz switching) on every slot boundary.
* :class:`PolarizationReuseScheduler` — stations are clustered by
  antenna orientation and the surface is retuned only at *group*
  boundaries; this is the paper's "polarization reuse" idea, trading a
  little per-station optimality for far less retuning overhead.

Each strategy serves an epoch from one lattice pass per epoch: a single
stacked probe of the serving stations' ``(n, k²)`` RSSI over the bias
lattice, from which it picks one lattice index per station.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.controller import bias_lattice
from repro.devices.wifi import wifi_rate_for_rssi_mbps
from repro.network.deployment import DenseDeployment


def jain_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index of a set of non-negative allocations."""
    allocations = np.asarray(values, dtype=float)
    if allocations.size == 0:
        raise ValueError("need at least one allocation")
    if np.any(allocations < 0):
        raise ValueError("allocations must be non-negative")
    total = allocations.sum()
    if total == 0:
        return 1.0
    return float(total ** 2 / (allocations.size * np.sum(allocations ** 2)))


@dataclass(frozen=True)
class StationAllocation:
    """Per-station outcome of one scheduling epoch."""

    station: str
    bias_pair: Tuple[float, float]
    rssi_dbm: float
    rate_mbps: float
    airtime_fraction: float

    @property
    def throughput_mbps(self) -> float:
        """Throughput delivered to this station over the epoch."""
        return self.rate_mbps * self.airtime_fraction


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling one epoch over a deployment."""

    scheduler_name: str
    allocations: Tuple[StationAllocation, ...]
    retune_count: int
    retune_overhead_fraction: float

    @functools.cached_property
    def total_throughput_mbps(self) -> float:
        """Aggregate network throughput after retuning overhead.

        Summed once per result: the fleet memo hands the same result to
        every schedule request of an epoch.
        """
        raw = sum(allocation.throughput_mbps for allocation in self.allocations)
        return raw * (1.0 - self.retune_overhead_fraction)

    @property
    def fairness(self) -> float:
        """Jain fairness of the per-station throughputs.

        An epoch that allocated nothing (no stations) is vacuously fair.
        """
        if not self.allocations:
            return 1.0
        return jain_fairness_index(
            [allocation.throughput_mbps for allocation in self.allocations])

    @property
    def worst_station_rate_mbps(self) -> float:
        """PHY rate of the worst-served station (0 if any link is down,
        or when the epoch allocated no stations at all)."""
        if not self.allocations:
            return 0.0
        return min(allocation.rate_mbps for allocation in self.allocations)

    def allocation_for(self, station: str) -> StationAllocation:
        """Look up one station's allocation."""
        for allocation in self.allocations:
            if allocation.station == station:
                return allocation
        raise KeyError(f"no allocation for station {station!r}")


def check_schedule_arguments(epoch_duration_s: float,
                             bias_search_step_v: float,
                             orientation_tolerance_deg: float = 20.0
                             ) -> None:
    """Raise ``ValueError`` on a schedule argument no scheduler accepts.

    The epoch duration and bias step must be positive and finite, the
    orientation tolerance positive; NaN fails every check.
    """
    if not (math.isfinite(epoch_duration_s) and epoch_duration_s > 0):
        raise ValueError("epoch duration must be positive and finite, "
                         f"got {epoch_duration_s!r}")
    if not (math.isfinite(bias_search_step_v) and bias_search_step_v > 0):
        raise ValueError("bias search step must be positive and finite, "
                         f"got {bias_search_step_v!r}")
    if not orientation_tolerance_deg > 0:
        raise ValueError("orientation tolerance must be positive, "
                         f"got {orientation_tolerance_deg!r}")


class _SchedulerBase:
    """Shared plumbing for the concrete schedulers."""

    #: Time the controller needs to retune the surface (Algorithm 1 with
    #: the paper's defaults: 50 probes at 50 Hz switching = 1 s).
    RETUNE_TIME_S = 1.0

    def __init__(self, deployment: DenseDeployment,
                 epoch_duration_s: float = 60.0,
                 bias_search_step_v: float = 5.0,
                 stations: Optional[Sequence[str]] = None):
        check_schedule_arguments(epoch_duration_s, bias_search_step_v)
        self.deployment = deployment
        self.epoch_duration_s = epoch_duration_s
        self.bias_search_step_v = bias_search_step_v
        # The stations this epoch actually serves (the survivor subset
        # after quarantine); ``None`` schedules the whole deployment.
        # May be empty — the epoch then allocates nothing.
        if stations is None:
            self.stations = deployment.stations
        else:
            self.stations = tuple(deployment.station(name)
                                  for name in stations)
        #: Names of the stations this epoch serves, in slot order.
        self.station_names: Tuple[str, ...] = tuple(
            station.name for station in self.stations)

    def _empty_result(self, name: str) -> ScheduleResult:
        """The well-formed epoch that serves nobody (all quarantined)."""
        return ScheduleResult(scheduler_name=name, allocations=(),
                              retune_count=0, retune_overhead_fraction=0.0)

    def _lattice_rssi(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The epoch's one probe: ``(vx_flat, vy_flat, rssi)``, ``rssi``
        shaped ``(n, k²)`` over the flattened vx-major lattice, rows in
        slot order."""
        levels = bias_lattice(self.bias_search_step_v)
        vx_grid, vy_grid = np.meshgrid(levels, levels, indexing="ij")
        vx_flat, vy_flat = vx_grid.ravel(), vy_grid.ravel()
        return vx_flat, vy_flat, self.deployment.ensemble_for(
            self.station_names).measure_aligned(vx_flat[None], vy_flat[None])

    def _overhead_fraction(self, retune_count: int) -> float:
        """Fraction of the epoch burned by surface retuning."""
        overhead = retune_count * self.RETUNE_TIME_S / self.epoch_duration_s
        return min(overhead, 1.0)

    def _build_result(self, name: str, vx_flat: np.ndarray,
                      vy_flat: np.ndarray, rssi: np.ndarray,
                      chosen: np.ndarray, retune_count: int) -> ScheduleResult:
        """Allocations at each station's chosen lattice index (its slot
        RSSI is gathered from the lattice matrix, not probed again)."""
        at_choice = rssi[np.arange(len(chosen)), chosen]
        rates = wifi_rate_for_rssi_mbps(at_choice)
        share = 1.0 / len(self.stations)
        allocations = tuple(
            StationAllocation(station=station, bias_pair=(vx, vy),
                              rssi_dbm=power, rate_mbps=rate,
                              airtime_fraction=share)
            for station, vx, vy, power, rate in zip(
                self.station_names, vx_flat[chosen].tolist(),
                vy_flat[chosen].tolist(), at_choice.tolist(),
                rates.tolist()))
        return ScheduleResult(
            scheduler_name=name,
            allocations=allocations,
            retune_count=retune_count,
            retune_overhead_fraction=self._overhead_fraction(retune_count),
        )


def _first_max(values: np.ndarray) -> np.ndarray:
    """Index of the first maximum along the last axis; NaN never wins."""
    return np.argmax(np.where(np.isnan(values), -np.inf, values), axis=-1)


class FixedBiasScheduler(_SchedulerBase):
    """One bias pair for the whole epoch (tuned for the aggregate).

    The bias pair is chosen to maximize the *sum* of station rates over a
    coarse grid — i.e. the best single compromise state — and is applied
    once at the start of the epoch.
    """

    def schedule(self) -> ScheduleResult:
        """Pick the best compromise bias pair and serve everyone with it."""
        if not self.stations:
            return self._empty_result("fixed-bias")
        vx_flat, vy_flat, rssi = self._lattice_rssi()
        best = _first_max(wifi_rate_for_rssi_mbps(rssi).sum(axis=0))
        chosen = np.full(len(self.stations), best)
        return self._build_result("fixed-bias", vx_flat, vy_flat, rssi,
                                  chosen, retune_count=1)


class PerStationScheduler(_SchedulerBase):
    """Retune the surface for every station's slot."""

    def schedule(self) -> ScheduleResult:
        """Give each station its individually optimal bias pair.

        Each station takes the first maximum of its own lattice row (the
        grid search of :meth:`DenseDeployment.best_bias_per_station`).
        """
        if not self.stations:
            return self._empty_result("per-station")
        vx_flat, vy_flat, rssi = self._lattice_rssi()
        return self._build_result("per-station", vx_flat, vy_flat, rssi,
                                  _first_max(rssi),
                                  retune_count=len(self.stations))


class PolarizationReuseScheduler(_SchedulerBase):
    """Retune only at orientation-group boundaries (polarization reuse).

    Stations with similar antenna orientations need nearly the same
    rotation, so one bias pair serves the whole group; the number of
    retunes per epoch drops from the station count to the group count.
    """

    def __init__(self, deployment: DenseDeployment,
                 epoch_duration_s: float = 60.0,
                 bias_search_step_v: float = 5.0,
                 orientation_tolerance_deg: float = 20.0,
                 stations: Optional[Sequence[str]] = None):
        check_schedule_arguments(epoch_duration_s, bias_search_step_v,
                                 orientation_tolerance_deg)
        super().__init__(deployment, epoch_duration_s, bias_search_step_v,
                         stations=stations)
        self.orientation_tolerance_deg = orientation_tolerance_deg

    def schedule(self) -> ScheduleResult:
        """Tune each orientation cluster to its summed-rate first maximum."""
        if not self.stations:
            return self._empty_result("polarization-reuse")
        # Cluster over the whole deployment (stable group anchors), then
        # keep only the stations this epoch serves.
        names = self.station_names
        row_of = {name: row for row, name in enumerate(names)}
        groups = [[row_of[name] for name in group if name in row_of]
                  for group in self.deployment.orientation_groups(
                      self.orientation_tolerance_deg)]
        groups = [rows for rows in groups if rows]
        vx_flat, vy_flat, rssi = self._lattice_rssi()
        rates = wifi_rate_for_rssi_mbps(rssi)
        best = np.empty(len(rssi), dtype=np.intp)
        for rows in groups:
            best[rows] = _first_max(rates[rows].sum(axis=0))
        # A name served twice reads its group's choice from its last row.
        chosen = best[[row_of[name] for name in names]]
        return self._build_result("polarization-reuse", vx_flat, vy_flat,
                                  rssi, chosen, retune_count=len(groups))


def baseline_without_surface(
        deployment: DenseDeployment,
        stations: Optional[Sequence[str]] = None) -> ScheduleResult:
    """Round-robin TDMA with no metasurface deployed at all.

    All stations' baseline links evaluate as one stacked probe of the
    no-surface fleet ensemble.  ``stations`` restricts the epoch to a
    survivor subset; an empty subset allocates nothing.
    """
    names = (deployment.station_names if stations is None
             else tuple(stations))
    if not names:
        return ScheduleResult(scheduler_name="no-surface", allocations=(),
                              retune_count=0, retune_overhead_fraction=0.0)
    share = 1.0 / len(names)
    rssi = deployment.ensemble_for(names, with_surface=False).measure_aligned(
        0.0, 0.0)
    rates = wifi_rate_for_rssi_mbps(rssi)
    allocations = [
        StationAllocation(
            station=name, bias_pair=(0.0, 0.0),
            rssi_dbm=float(rssi[index]), rate_mbps=float(rates[index]),
            airtime_fraction=share)
        for index, name in enumerate(names)
    ]
    return ScheduleResult(scheduler_name="no-surface",
                          allocations=tuple(allocations),
                          retune_count=0, retune_overhead_fraction=0.0)


__all__ = [
    "jain_fairness_index",
    "StationAllocation",
    "ScheduleResult",
    "FixedBiasScheduler",
    "PerStationScheduler",
    "PolarizationReuseScheduler",
    "baseline_without_surface",
    "check_schedule_arguments",
]
