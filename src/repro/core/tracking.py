"""Dynamic orientation tracking (paper Fig. 1 motivation).

Wearables and handled devices change antenna orientation continuously —
the paper's Fig. 1 shows a smartwatch swinging from aligned to orthogonal
as the user moves.  A one-shot optimization goes stale as soon as the
orientation drifts; this module adds the time dimension:

* :class:`OrientationTrajectory` — deterministic orientation-vs-time
  models (arm swing, slow drift, random walk);
* :class:`TrackingController` — re-runs the bias search periodically and
  holds the last optimum in between, accounting for the search's airtime
  cost (Algorithm 1 takes ~1 s at the supply's 50 Hz switching rate);
* :class:`TrackingReport` — time-averaged gain over the no-surface
  baseline, outage statistics and the static-optimization comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api.backend import LinkBackend
from repro.channel.grid import ProbeGrid
from repro.channel.link import LinkConfiguration, WirelessLink
from repro.core.controller import CentralizedController, VoltageSweepConfig


class TraceTimestampError(ValueError):
    """A trace-driven run was handed a malformed time axis.

    Raised for empty, non-finite, duplicate or out-of-order timestamps.
    Interpolating against such an axis would not crash — NumPy happily
    mis-samples across a fold in time — so the tracking loop refuses it
    up front instead of producing silently wrong power traces.
    """


def validate_timestamps(times_s) -> np.ndarray:
    """Validate a trace time axis: finite and strictly increasing.

    Returns the timestamps as a float array.  Raises
    :class:`TraceTimestampError` on an empty axis, non-finite entries,
    duplicates or out-of-order entries — the malformed inputs a
    recorded mobility/rotation trace can carry.
    """
    times = np.atleast_1d(np.asarray(times_s, dtype=float))
    if times.ndim != 1:
        raise TraceTimestampError(
            f"timestamps must be one-dimensional, got shape {times.shape}")
    if times.size == 0:
        raise TraceTimestampError("timestamps must be non-empty")
    if not np.all(np.isfinite(times)):
        raise TraceTimestampError("timestamps must be finite")
    steps = np.diff(times)
    if np.any(steps == 0.0):
        at = float(times[int(np.argmin(steps != 0.0))]) if steps.size else 0.0
        raise TraceTimestampError(
            f"duplicate timestamp at t={at:g}s; trace samples must be "
            "strictly increasing")
    if np.any(steps < 0.0):
        raise TraceTimestampError(
            "timestamps are out of order; trace samples must be strictly "
            "increasing")
    return times


@dataclass(frozen=True)
class OrientationTrajectory:
    """Receiver antenna orientation as a function of time.

    Attributes
    ----------
    kind:
        ``"swing"`` (sinusoidal arm swing), ``"drift"`` (linear rotation)
        or ``"static"``.
    base_orientation_deg:
        Orientation at time zero.
    amplitude_deg:
        Peak deviation for the swing model.
    period_s:
        Swing period.
    drift_rate_deg_per_s:
        Rotation rate for the drift model.
    """

    kind: str = "swing"
    base_orientation_deg: float = 45.0
    amplitude_deg: float = 45.0
    period_s: float = 4.0
    drift_rate_deg_per_s: float = 5.0

    def __post_init__(self) -> None:
        if self.kind not in ("swing", "drift", "static"):
            raise ValueError("kind must be 'swing', 'drift' or 'static'")
        if self.period_s <= 0:
            raise ValueError("period must be positive")
        if self.amplitude_deg < 0:
            raise ValueError("amplitude must be non-negative")

    def orientation_at(self, time_s: float) -> float:
        """Antenna orientation (degrees) at ``time_s``."""
        if self.kind == "static":
            return self.base_orientation_deg
        if self.kind == "drift":
            return (self.base_orientation_deg +
                    self.drift_rate_deg_per_s * time_s) % 180.0
        swing = self.amplitude_deg * math.sin(
            2.0 * math.pi * time_s / self.period_s)
        return (self.base_orientation_deg + swing) % 180.0

    @staticmethod
    def arm_swing(period_s: float = 4.0) -> "OrientationTrajectory":
        """The paper's Fig. 1 situation: a wrist swinging between aligned
        and orthogonal."""
        return OrientationTrajectory(kind="swing", base_orientation_deg=45.0,
                                     amplitude_deg=45.0, period_s=period_s)


@dataclass(frozen=True)
class TrackingSample:
    """One time step of a tracking run."""

    time_s: float
    orientation_deg: float
    bias_pair: Tuple[float, float]
    power_with_dbm: float
    power_without_dbm: float
    retuning: bool

    @property
    def gain_db(self) -> float:
        """Instantaneous improvement over the no-surface baseline."""
        return self.power_with_dbm - self.power_without_dbm


@dataclass(frozen=True)
class TrackingReport:
    """Aggregate outcome of a tracking run."""

    samples: Tuple[TrackingSample, ...]
    retune_count: int
    reoptimize_interval_s: float

    @property
    def mean_gain_db(self) -> float:
        """Time-averaged improvement over the no-surface baseline."""
        return float(np.mean([sample.gain_db for sample in self.samples]))

    @property
    def worst_gain_db(self) -> float:
        """Worst instantaneous improvement (can be negative when stale)."""
        return float(min(sample.gain_db for sample in self.samples))

    def outage_fraction(self, threshold_dbm: float) -> float:
        """Fraction of time the tracked link is below a power threshold."""
        below = [sample.power_with_dbm < threshold_dbm
                 for sample in self.samples]
        return float(np.mean(below))

    def baseline_outage_fraction(self, threshold_dbm: float) -> float:
        """Outage fraction of the no-surface baseline."""
        below = [sample.power_without_dbm < threshold_dbm
                 for sample in self.samples]
        return float(np.mean(below))


class TrackingController:
    """Periodically re-optimizes the surface as the endpoint rotates.

    Parameters
    ----------
    configuration:
        Link configuration whose receiver antenna follows the trajectory
        (its ``rx_antenna.orientation_deg`` is overridden per time step).
    trajectory:
        Orientation-vs-time model.
    reoptimize_interval_s:
        How often Algorithm 1 is re-run.  The search itself occupies
        ``search_duration_s`` during which the previous (stale) bias is
        still applied.
    sweep_config:
        Controller search parameters.
    """

    def __init__(self,
                 configuration: LinkConfiguration,
                 trajectory: OrientationTrajectory,
                 reoptimize_interval_s: float = 2.0,
                 search_duration_s: float = 1.0,
                 sweep_config: Optional[VoltageSweepConfig] = None):
        if configuration.metasurface is None:
            raise ValueError("tracking requires a metasurface in the link")
        if reoptimize_interval_s <= 0:
            raise ValueError("re-optimization interval must be positive")
        if search_duration_s < 0:
            raise ValueError("search duration must be non-negative")
        self.configuration = configuration
        self.trajectory = trajectory
        self.reoptimize_interval_s = reoptimize_interval_s
        self.search_duration_s = search_duration_s
        self.controller = CentralizedController(
            sweep_config if sweep_config is not None else
            VoltageSweepConfig(iterations=2, switches_per_axis=5))
        # The trajectory revisits orientations (periodic swings, slow
        # drifts), so rotated links — and their cached voltage-
        # independent fields — are built once per distinct angle and
        # reused across the whole run.
        self._links: Dict[float, WirelessLink] = {}
        self._base_link = WirelessLink(configuration)
        self._base_baseline = WirelessLink(configuration.without_surface())

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _link_at(self, orientation_deg: float) -> WirelessLink:
        key = float(orientation_deg)
        if key not in self._links:
            rotated = self.configuration.rx_antenna.rotated(key)
            self._links[key] = WirelessLink(
                replace(self.configuration, rx_antenna=rotated))
        return self._links[key]

    def _baseline_at(self, orientation_deg: float) -> WirelessLink:
        return WirelessLink(
            replace(self.configuration, rx_antenna=self.configuration.
                    rx_antenna.rotated(orientation_deg)).without_surface())

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def run(self, duration_s: float = 20.0,
            time_step_s: float = 0.25) -> TrackingReport:
        """Simulate the tracking loop over ``duration_s``.

        Only the re-optimization events are sequential (each bias search
        depends on the orientation at retune time); the per-sample power
        reads are batched afterwards as receiver-orientation sweeps —
        one vectorized pass per constant-bias segment for the tracked
        link and one for the whole baseline trace.
        """
        if duration_s <= 0 or time_step_s <= 0:
            raise ValueError("duration and time step must be positive")
        times = np.arange(0.0, duration_s, time_step_s)
        orientations = np.array([self.trajectory.orientation_at(float(t))
                                 for t in times])
        return self._run_on(times, orientations)

    def run_trace(self, times_s, orientations_deg=None) -> TrackingReport:
        """Run the tracking loop over an explicit (recorded) time axis.

        The trace-driven entry point: ``times_s`` is validated by
        :func:`validate_timestamps` — out-of-order or duplicate
        timestamps raise :class:`TraceTimestampError` instead of
        silently mis-sampling — and ``orientations_deg`` gives the
        receiver orientation at each timestamp.  When omitted, the
        controller's own trajectory is sampled at those times, and an
        object with a ``sample(times)`` method (a rotation trace from
        :mod:`repro.world.traces`) is sampled likewise.
        """
        times = validate_timestamps(times_s)
        if orientations_deg is None:
            orientations = np.array([self.trajectory.orientation_at(float(t))
                                     for t in times])
        elif hasattr(orientations_deg, "sample"):
            orientations = np.asarray(orientations_deg.sample(times),
                                      dtype=float)
        else:
            orientations = np.asarray(orientations_deg, dtype=float)
        if orientations.shape != times.shape:
            raise ValueError(
                f"orientations shape {orientations.shape} does not match "
                f"{times.size} timestamps")
        return self._run_on(times, orientations)

    def _run_on(self, times: np.ndarray,
                orientations: np.ndarray) -> TrackingReport:
        bias_pair = (0.0, 0.0)
        next_reoptimize_s = 0.0
        retune_count = 0
        # Sequential control pass: retune where due, and split the
        # timeline into constant-bias segments.
        bias_pairs: List[Tuple[float, float]] = []
        retuning_flags: List[bool] = []
        segments: List[Tuple[int, int, Tuple[float, float]]] = []
        segment_start = 0
        for index, time_s in enumerate(times):
            retuning = False
            if time_s >= next_reoptimize_s:
                link = self._link_at(orientations[index])
                sweep = self.controller.coarse_to_fine_sweep(LinkBackend(link))
                if index > segment_start:
                    segments.append((segment_start, index, bias_pair))
                    segment_start = index
                bias_pair = (sweep.best_vx, sweep.best_vy)
                next_reoptimize_s = time_s + self.reoptimize_interval_s
                retune_count += 1
                retuning = True
            bias_pairs.append(bias_pair)
            retuning_flags.append(retuning)
        segments.append((segment_start, len(times), bias_pair))
        # Batched measurement pass: one orientation sweep per segment
        # (tracked link) and one for the full baseline trace.
        powers_with = np.empty(len(times))
        for start, stop, (vx, vy) in segments:
            powers_with[start:stop] = self._base_link.evaluate(
                ProbeGrid.aligned(rx_orientation=orientations[start:stop],
                                  vx=vx, vy=vy))
        powers_without = self._base_baseline.evaluate(
            ProbeGrid.aligned(rx_orientation=orientations))
        samples = tuple(TrackingSample(
            time_s=float(time_s),
            orientation_deg=float(orientation),
            bias_pair=pair,
            power_with_dbm=float(power_with),
            power_without_dbm=float(power_without),
            retuning=retuning,
        ) for time_s, orientation, pair, power_with, power_without, retuning
            in zip(times, orientations, bias_pairs, powers_with,
                   powers_without, retuning_flags))
        return TrackingReport(samples=samples,
                              retune_count=retune_count,
                              reoptimize_interval_s=self.reoptimize_interval_s)

    def run_static(self, duration_s: float = 20.0,
                   time_step_s: float = 0.25) -> TrackingReport:
        """Optimize once at t = 0 and never retune (the stale baseline)."""
        tracker = TrackingController(
            configuration=self.configuration,
            trajectory=self.trajectory,
            reoptimize_interval_s=duration_s * 10.0,
            search_duration_s=self.search_duration_s,
            sweep_config=self.controller.config)
        return tracker.run(duration_s=duration_s, time_step_s=time_step_s)


__all__ = [
    "OrientationTrajectory",
    "TraceTimestampError",
    "TrackingSample",
    "TrackingReport",
    "TrackingController",
    "validate_timestamps",
]
