"""`WorldTimeline`: advance a whole fleet through time in batched passes.

The dynamic-world executor: given a :class:`~repro.api.fleet.FleetSpec`
and per-station mobility/rotation traces, the timeline samples every
trace onto one epoch grid and evaluates the **entire (timestep x
station) plane as one aligned** :class:`~repro.channel.grid.ProbeGrid`
— distance, transmit power and transmit orientation co-vary as
``(T, N)`` arrays against the bias voltages, so a 200-epoch, 12-station
world costs one pass of the budget engine, not 2400 scalar probes.
Retuning (:meth:`WorldTimeline.best_bias_planes`) crosses that plane
with every candidate bias pair; the resulting ``(candidate, T, N)``
cube is streamed through the engine in slices of the plane, so its
peak memory is bounded by the slice size rather than the timeline
length.  :meth:`WorldTimeline.evaluate_reference` is the
per-station-per-timestep scalar loop kept as the parity/bench baseline
(``benchmarks/test_bench_world.py`` gates the batched path at >= 3x).

Stations without a trace hold their spec values, so a timeline with no
traces at all reproduces the static snapshot exactly — each epoch row
equals :meth:`~repro.api.fleet.FleetSession.measure_aligned` to
<= 1e-9 dB (the ``world_mobility_tracking`` check gate).

Composition points:

* :meth:`active_station_sets` steps a :class:`repro.faults.StationChurn`
  process epoch-by-epoch, returning the per-epoch survivor sets a
  :meth:`~repro.api.fleet.FleetSession.apply_churn` loop consumes;
* :meth:`epoch_request_traces` turns those survivor sets into per-epoch
  :mod:`repro.serve` load (one open-loop trace per epoch over the
  stations alive in it, each epoch on its own named RNG stream);
* :meth:`run_tracking` drives the single-link
  :class:`~repro.core.tracking.TrackingController` from a station's
  rotation trace through the trace-validated
  :meth:`~repro.core.tracking.TrackingController.run_trace` entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.api.fleet import FleetSession, FleetSpec
from repro.channel.grid import ProbeGrid
from repro.core.controller import bias_lattice
from repro.core.tracking import (
    OrientationTrajectory,
    TrackingController,
    TrackingReport,
    validate_timestamps,
)
from repro.faults import StationChurn
from repro.world.traces import MobilityTrace, RotationTrace, Trace

__all__ = ["WorldTimeline", "WorldTimelineReport"]

#: Cube cells (candidates x epochs x stations) probed per slice by
#: :meth:`WorldTimeline.best_bias_planes`: a few tens of MB of budget
#: temporaries, large enough that per-slice overhead stays negligible.
_CUBE_SLICE_CELLS = 2 ** 18


@dataclass(frozen=True)
class WorldTimelineReport:
    """Aggregate outcome of one trace-driven fleet run."""

    times_s: Tuple[float, ...]
    station_names: Tuple[str, ...]
    powers_with_dbm: np.ndarray
    powers_without_dbm: np.ndarray
    bias_vx: np.ndarray
    bias_vy: np.ndarray
    trace_digests: Tuple[Tuple[str, int], ...]

    @property
    def gains_db(self) -> np.ndarray:
        """Per-epoch, per-station improvement over no-surface."""
        return self.powers_with_dbm - self.powers_without_dbm

    @property
    def mean_gain_db(self) -> float:
        """Time-and-fleet averaged improvement."""
        return float(np.mean(self.gains_db))

    @property
    def worst_gain_db(self) -> float:
        """Worst instantaneous improvement anywhere in the plane."""
        return float(np.min(self.gains_db))

    @property
    def epoch_mean_power_dbm(self) -> np.ndarray:
        """Fleet-mean tracked power per epoch (the time series)."""
        return np.mean(self.powers_with_dbm, axis=1)


class WorldTimeline:
    """A fleet plus the traces that move it, on one epoch grid.

    Parameters
    ----------
    spec:
        The deployment (a :class:`~repro.api.fleet.FleetSpec`).
    mobility:
        Optional mapping ``station name -> MobilityTrace`` (distance
        over time).  Unmapped stations hold their spec distance.
    rotation:
        Optional mapping ``station name -> RotationTrace`` (transmit
        orientation over time).  Unmapped stations hold their spec
        orientation.
    duration_s, time_step_s:
        The epoch grid; timestamps are ``arange(0, duration, step)``.
    """

    def __init__(self, spec: FleetSpec,
                 mobility: Optional[Mapping[str, MobilityTrace]] = None,
                 rotation: Optional[Mapping[str, RotationTrace]] = None,
                 duration_s: float = 10.0,
                 time_step_s: float = 0.5):
        if duration_s <= 0 or time_step_s <= 0:
            raise ValueError("duration and time step must be positive")
        self.spec = spec
        self.fleet = FleetSession(spec)
        self.duration_s = float(duration_s)
        self.time_step_s = float(time_step_s)
        self.mobility: Dict[str, Trace] = dict(mobility or {})
        self.rotation: Dict[str, Trace] = dict(rotation or {})
        names = set(spec.station_names)
        for label, traces in (("mobility", self.mobility),
                              ("rotation", self.rotation)):
            unknown = sorted(set(traces) - names)
            if unknown:
                raise KeyError(f"{label} traces name unknown stations: "
                               f"{unknown}")

    # ------------------------------------------------------------------ #
    # The epoch grid and the trace planes
    # ------------------------------------------------------------------ #
    @property
    def station_names(self) -> Tuple[str, ...]:
        """Stations in stacking order (the trailing plane axis)."""
        return self.spec.station_names

    @property
    def epoch_count(self) -> int:
        """Number of timesteps on the epoch grid."""
        return len(self.times())

    def times(self) -> np.ndarray:
        """The epoch timestamps (strictly increasing, validated)."""
        return validate_timestamps(
            np.arange(0.0, self.duration_s, self.time_step_s))

    def distance_plane(self, times: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-epoch station distances, shaped ``(T, N)``."""
        times = self.times() if times is None else validate_timestamps(times)
        columns = [
            self.mobility[station.name].sample(times)
            if station.name in self.mobility
            else np.full(times.size, station.distance_m)
            for station in self.spec.stations]
        return np.stack(columns, axis=1)

    def orientation_plane(self,
                          times: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-epoch station transmit orientations, shaped ``(T, N)``."""
        times = self.times() if times is None else validate_timestamps(times)
        columns = [
            self.rotation[station.name].sample(times)
            if station.name in self.rotation
            else np.full(times.size, station.orientation_deg)
            for station in self.spec.stations]
        return np.stack(columns, axis=1)

    def trace_digests(self) -> Tuple[Tuple[str, int], ...]:
        """Sorted ``(kind.station, digest)`` pairs — the replay pin."""
        pairs = [(f"mobility.{name}", trace.digest())
                 for name, trace in self.mobility.items()]
        pairs += [(f"rotation.{name}", trace.digest())
                  for name, trace in self.rotation.items()]
        return tuple(sorted(pairs))

    # ------------------------------------------------------------------ #
    # Batched evaluation (the fast path)
    # ------------------------------------------------------------------ #
    def evaluate(self, vx=0.0, vy=0.0, with_surface: bool = True
                 ) -> np.ndarray:
        """Received power of every station at every epoch, one pass.

        ``vx`` / ``vy`` may be scalars, per-station ``(N,)`` arrays (a
        fixed bias plan) or full ``(T, N)`` planes (a retuning
        schedule); the result is ``(T, N)`` dBm.  One aligned
        :class:`~repro.channel.grid.ProbeGrid` covers the whole
        timeline — the batched per-epoch probe the subsystem exists
        for.
        """
        times = self.times()
        ensemble = self.fleet.deployment.ensemble_for(
            with_surface=with_surface)
        grid = ProbeGrid.aligned(
            distance=self.distance_plane(times),
            tx_orientation=self.orientation_plane(times),
            tx_power=ensemble.parameter("tx_power_dbm"),
            vx=np.asarray(vx, dtype=float),
            vy=np.asarray(vy, dtype=float))
        return np.asarray(ensemble.link.evaluate_grid(grid), dtype=float)

    def evaluate_reference(self, vx=0.0, vy=0.0, with_surface: bool = True
                           ) -> np.ndarray:
        """The same plane via a per-station-per-timestep scalar loop.

        One 1x1 probe per (epoch, station) cell through the identical
        budget engine — the honest scalar baseline the world benchmark
        compares against (and the parity reference pinning
        :meth:`evaluate` to <= 1e-9 dB cell-for-cell).
        """
        times = self.times()
        distances = self.distance_plane(times)
        orientations = self.orientation_plane(times)
        ensemble = self.fleet.deployment.ensemble_for(
            with_surface=with_surface)
        powers_dbm = ensemble.parameter("tx_power_dbm")
        vx_plane = np.broadcast_to(np.asarray(vx, dtype=float),
                                   distances.shape)
        vy_plane = np.broadcast_to(np.asarray(vy, dtype=float),
                                   distances.shape)
        result = np.empty_like(distances)
        for t in range(distances.shape[0]):
            for i in range(distances.shape[1]):
                grid = ProbeGrid.aligned(
                    distance=np.float64(distances[t, i]),
                    tx_orientation=np.float64(orientations[t, i]),
                    tx_power=np.float64(powers_dbm[i]),
                    vx=np.float64(vx_plane[t, i]),
                    vy=np.float64(vy_plane[t, i]))
                result[t, i] = float(ensemble.link.evaluate_grid(grid))
        return result

    def best_bias_planes(self, step_v: float = 10.0
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-epoch, per-station best bias from a streamed candidate cube.

        The ``(candidate, epoch, station)`` cube — every bias pair on the
        search lattice against every cell of the trace planes — is
        probed in contiguous slices of the trace plane
        (:meth:`~repro.channel.grid.ProbeGrid.split`, about
        :data:`_CUBE_SLICE_CELLS` cube cells each), so peak memory
        follows the slice size rather than the timeline length.  Each
        slice is a ``(k, 1, 1)`` candidate column against ``(1, t, N)``
        trace planes, the engine's separable layout: one small
        candidates x cells matrix product (see
        :mod:`repro.channel.link`), with no per-cell field.  Every
        slice carries the whole candidate axis, so its reduction is
        already the final answer for its cells; the slices' ``(vx, vy,
        power_dbm)`` planes concatenate to ``(T, N)``.  Same lattice and
        first-maximum semantics (NaN never wins) as
        :meth:`~repro.network.deployment.DenseDeployment.best_bias_per_station`,
        so a static world reproduces the static plan at every epoch.
        """
        levels = bias_lattice(step_v)
        vx_grid, vy_grid = np.meshgrid(levels, levels, indexing="ij")
        vx_flat, vy_flat = vx_grid.ravel(), vy_grid.ravel()
        times = self.times()
        ensemble = self.fleet.deployment.ensemble_for(with_surface=True)
        plane = ProbeGrid.aligned(
            distance=self.distance_plane(times),
            tx_orientation=self.orientation_plane(times),
            tx_power=ensemble.parameter("tx_power_dbm"))
        parts = -(-vx_flat.size * plane.size // _CUBE_SLICE_CELLS)
        pieces = []
        for piece in plane.split(parts):
            cube = ProbeGrid.aligned(
                **{name: piece.shaped(name)[None, ...]
                   for name in piece.names},
                vx=vx_flat[:, None, None], vy=vy_flat[:, None, None])
            powers = np.asarray(ensemble.link.evaluate_grid(cube),
                                dtype=float)
            best = np.argmax(np.where(np.isnan(powers), -np.inf, powers),
                             axis=0)
            pieces.append((vx_flat[best], vy_flat[best],
                           np.take_along_axis(powers, best[None], 0)[0]))
        axis = plane.split_dim() or 0  # unsplittable planes: one piece
        return tuple(np.concatenate(planes, axis=axis)
                     for planes in zip(*pieces))

    def run(self, bias_search_step_v: float = 10.0,
            retune: bool = True) -> WorldTimelineReport:
        """One full trace-driven run.

        With ``retune`` (the default) every epoch gets its own
        per-station bias pair from :meth:`best_bias_planes` — the
        controller keeps up with the traces at the cost of the streamed
        candidate cube plus one baseline pass.  Without it the stacked
        t=0 plan (:meth:`~repro.api.fleet.FleetSession.best_bias_plan`,
        optimized for the *spec* geometry) is held across the whole
        timeline — the stale-plan comparison case.
        """
        if retune:
            vx, vy, powers_with = self.best_bias_planes(
                step_v=bias_search_step_v)
        else:
            plan = self.fleet.best_bias_plan(step_v=bias_search_step_v)
            vx, vy = plan.best_vx, plan.best_vy
            powers_with = self.evaluate(vx=vx, vy=vy)
        powers_without = self.evaluate(with_surface=False)
        return WorldTimelineReport(
            times_s=tuple(float(t) for t in self.times()),
            station_names=self.station_names,
            powers_with_dbm=powers_with,
            powers_without_dbm=powers_without,
            bias_vx=np.asarray(vx, dtype=float),
            bias_vy=np.asarray(vy, dtype=float),
            trace_digests=self.trace_digests())

    # ------------------------------------------------------------------ #
    # Composition: churn, serving, tracking
    # ------------------------------------------------------------------ #
    def active_station_sets(self, churn: StationChurn
                            ) -> Tuple[Tuple[str, ...], ...]:
        """Step a churn process across the epoch grid.

        Returns one tuple of up-station names per epoch, in epoch
        order — the survivor sets a
        :meth:`~repro.api.fleet.FleetSession.apply_churn` loop or the
        serving plane consumes.  The churn process owns its own named
        RNG streams, so composing it with the timeline never perturbs
        the traces.
        """
        return tuple(tuple(churn.advance())
                     for _ in range(self.epoch_count))

    def epoch_request_traces(self, profile,
                             station_sets: Tuple[Tuple[str, ...], ...]):
        """Per-epoch open-loop serving load over the surviving stations.

        ``profile`` is a :class:`repro.serve.LoadProfile`; epoch ``k``
        draws from streams named ``world.epoch<k>.<station>`` so the
        load replays exactly and epochs never share draws.  Epochs whose
        survivor set is empty yield ``None`` (nothing to serve).
        """
        from repro.serve.loadgen import generate_trace

        return tuple(
            generate_trace(profile, stations,
                           stream_prefix=f"world.epoch{index}")
            if stations else None
            for index, stations in enumerate(station_sets))

    def run_tracking(self, station: str,
                     reoptimize_interval_s: float = 2.0) -> TrackingReport:
        """Drive the single-link tracking loop from a station's traces.

        Builds a :class:`~repro.core.tracking.TrackingController` over
        the station's link and feeds it the timeline's epoch grid plus
        the station's rotation trace through the trace-validated
        :meth:`~repro.core.tracking.TrackingController.run_trace`
        entry.  The station needs a rotation trace (a static world has
        nothing to track).
        """
        if station not in self.rotation:
            raise KeyError(f"station {station!r} has no rotation trace")
        configuration = self.fleet.deployment.link_for(station).configuration
        controller = TrackingController(
            configuration=configuration,
            trajectory=OrientationTrajectory(kind="static"),
            reoptimize_interval_s=reoptimize_interval_s)
        return controller.run_trace(self.times(), self.rotation[station])
