"""Centralized controller and bias-voltage search (paper Sec. 3.3, Algorithm 1).

The controller observes received power reported by the endpoint and
searches the two-dimensional bias-voltage space for the pair (Vx, Vy)
that maximizes it.  A full 1 V-step scan of the 0-30 V range takes about
30 seconds at the supply's 50 Hz switching rate, so the paper introduces
a coarse-to-fine sweep (Algorithm 1): ``N`` iterations of ``T`` switches
per axis, shrinking the search window around the best point after each
iteration.  With the paper's defaults (T=5, N=2) the search cost drops
from ~900 probes to 50.

The controller is deliberately decoupled from the physics: it talks to
the world through a :class:`repro.api.MeasurementBackend`, issuing one
*batched* probe per grid (``full_sweep``) or per refinement iteration
(``coarse_to_fine_sweep``).  The simulation backend evaluates whole
bias grids in a single vectorized pass of the link budget; hardware or
recorded-trace backends can answer element by element.  The
grid-native searches (``optimize_grid``) run the same search at every
cell of a :class:`~repro.channel.grid.ProbeGrid` over link-parameter
axes at once; they probe through the backend's ``measure_grid``, the
one protocol for link-parameter axes.

Legacy scalar ``measure(vx, vy) -> power_dbm`` callables are still
accepted everywhere a backend is, but are deprecated: they are wrapped
in :class:`repro.api.CallableBackend` (with a ``DeprecationWarning``)
and probed through a Python loop.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.channel.grid import ProbeGrid
from repro.constants import (
    BIAS_VOLTAGE_MAX_V,
    BIAS_VOLTAGE_MIN_V,
    SUPPLY_SWITCH_RATE_HZ,
)
from repro.faults.policy import ProbePolicy

MeasureCallback = Callable[[float, float], float]

#: Accepted by every controller entry point: a measurement backend, or a
#: legacy scalar callable (deprecated).
MeasureSource = Union["MeasurementBackend", MeasureCallback]


def _as_measurement_backend(measure):
    """Coerce a backend-or-callable argument, warning on the legacy path."""
    from repro.api.backend import as_backend
    backend = as_backend(measure)
    if backend is not measure:
        warnings.warn(
            "passing a bare measure(vx, vy) callable to CentralizedController "
            "is deprecated; pass a repro.api.MeasurementBackend (e.g. "
            "LinkBackend for vectorized sweeps, or CallableBackend to wrap "
            "this callable)",
            DeprecationWarning, stacklevel=3)
    return backend


def bias_lattice(step_v: float, low: float = BIAS_VOLTAGE_MIN_V,
                 high: float = BIAS_VOLTAGE_MAX_V) -> np.ndarray:
    """The bias levels ``low, low + step_v, ...`` of an exhaustive search.

    The ladder reaches ``high`` when ``step_v`` divides the range (up to
    half a step of round-off); a level the ladder would place above
    ``high`` is dropped rather than probed out of range.  Raises
    ``ValueError`` unless ``step_v`` is positive and finite.
    """
    if not (math.isfinite(step_v) and step_v > 0):
        raise ValueError(f"step must be positive and finite, got {step_v!r}")
    levels = np.arange(low, high + 0.5 * step_v, step_v)
    return levels[levels <= high]


def vectorized_grid_max(levels_x: np.ndarray, levels_y: np.ndarray,
                        measure_batch) -> Tuple[np.ndarray, np.ndarray,
                                                np.ndarray, int]:
    """Evaluate a 2-D grid with one batched call; find its first maximum.

    The shared primitive of every batched grid search (controller
    sweeps, per-station bias search, scheduler utility search): build
    the vx-major meshgrid, issue a single ``measure_batch`` over the
    flattened pairs, and locate the first maximum with NaN values
    treated as ``-inf`` (never selected), matching the historical
    strict-``>`` scalar loops.  Returns ``(vx_flat, vy_flat, values,
    best_index)``.
    """
    vx_grid, vy_grid = np.meshgrid(levels_x, levels_y, indexing="ij")
    vx_flat = vx_grid.ravel()
    vy_flat = vy_grid.ravel()
    values = np.asarray(measure_batch(vx_flat, vy_flat), dtype=float).ravel()
    if values.shape != vx_flat.shape:
        raise ValueError(f"batched measurement returned {values.shape[0]} "
                         f"values for {vx_flat.shape[0]} probes")
    masked = np.where(np.isnan(values), -math.inf, values)
    return vx_flat, vy_flat, values, int(np.argmax(masked))


@dataclass(frozen=True)
class VoltageSweepConfig:
    """Parameters of the coarse-to-fine sweep (paper Algorithm 1).

    Attributes
    ----------
    iterations:
        ``N`` — number of refinement iterations (paper default 2).
    switches_per_axis:
        ``T`` — number of voltage levels probed per axis per iteration
        (paper default 5).
    min_voltage_v, max_voltage_v:
        Initial sweep window for both axes (paper: 0-30 V).
    switch_interval_s:
        Time cost of one probe, set by the supply's switching rate
        (0.02 s at 50 Hz); the paper's per-iteration cost is
        ``0.02 * T^2``.
    """

    iterations: int = 2
    switches_per_axis: int = 5
    min_voltage_v: float = BIAS_VOLTAGE_MIN_V
    max_voltage_v: float = BIAS_VOLTAGE_MAX_V
    switch_interval_s: float = 1.0 / SUPPLY_SWITCH_RATE_HZ

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.switches_per_axis < 2:
            raise ValueError("need at least two switches per axis")
        if self.max_voltage_v <= self.min_voltage_v:
            raise ValueError("max voltage must exceed min voltage")
        if self.switch_interval_s <= 0:
            raise ValueError("switch interval must be positive")

    @property
    def probe_count(self) -> int:
        """Total number of (Vx, Vy) probes the coarse-to-fine sweep makes."""
        return self.iterations * self.switches_per_axis ** 2

    @property
    def estimated_duration_s(self) -> float:
        """Paper's time-cost expression ``0.02 * N * T^2``."""
        return self.switch_interval_s * self.probe_count


@dataclass(frozen=True)
class GridSweepResult:
    """Outcome of a bias-voltage search run at every point of a probe grid.

    ``grid`` is a :class:`~repro.channel.grid.ProbeGrid` over
    link-parameter axes (the controller owns the voltage axes) and every
    result array has ``grid.shape`` — cell ``index`` holds exactly what
    the scalar search on a link rebuilt at that cell's axis values would
    have found (same voltage grids, same first-maximum and NaN
    semantics), with all cells probed together in one batched call per
    refinement iteration.
    """

    grid: ProbeGrid
    best_vx: np.ndarray
    best_vy: np.ndarray
    best_power_dbm: np.ndarray
    probe_count_per_point: int
    duration_s_per_point: float
    strategy: str

    def __post_init__(self) -> None:
        for name in ("best_vx", "best_vy", "best_power_dbm"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))

    @property
    def point_count(self) -> int:
        """Number of grid points optimized."""
        return self.grid.size


@dataclass(frozen=True)
class SweepSample:
    """One probed operating point."""

    vx: float
    vy: float
    power_dbm: float
    iteration: int


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a bias-voltage search."""

    best_vx: float
    best_vy: float
    best_power_dbm: float
    samples: Tuple[SweepSample, ...]
    duration_s: float
    strategy: str

    @property
    def probe_count(self) -> int:
        """Number of operating points probed."""
        return len(self.samples)

    def power_grid(self) -> dict:
        """Mapping of (vx, vy) -> best observed power, for heatmaps."""
        grid: dict = {}
        for sample in self.samples:
            key = (sample.vx, sample.vy)
            if key not in grid or sample.power_dbm > grid[key]:
                grid[key] = sample.power_dbm
        return grid

    @property
    def power_range_db(self) -> float:
        """Spread between the strongest and weakest probed power."""
        powers = [sample.power_dbm for sample in self.samples]
        return max(powers) - min(powers)


class CentralizedController:
    """Implements the paper's full and coarse-to-fine voltage sweeps.

    ``probe_policy`` (median-of-k re-voting,
    :class:`repro.faults.policy.ProbePolicy`) hardens every probe the
    controller issues: each grid is probed ``repeats`` times and the
    element-wise median is searched, so a single corrupted probe cannot
    hijack the coarse-to-fine refinement.  The default (``repeats=1``)
    is the exact historical single-probe behaviour.
    """

    def __init__(self, config: Optional[VoltageSweepConfig] = None,
                 probe_policy: Optional[ProbePolicy] = None):
        self.config = config if config is not None else VoltageSweepConfig()
        self.probe_policy = (probe_policy if probe_policy is not None
                             else ProbePolicy())

    # ------------------------------------------------------------------ #
    # Exhaustive baseline sweep
    # ------------------------------------------------------------------ #
    def _probe_grid(self, backend, levels_x: np.ndarray,
                    levels_y: np.ndarray,
                    iteration: int) -> Tuple[List[SweepSample], Tuple[float, float, float]]:
        """Issue one (re-voted) batched probe over a voltage grid.

        Returns the samples (vx-major order, matching the historical
        scalar loop) and the first-maximum ``(power, vx, vy)`` triple.
        """
        vx_flat, vy_flat, powers, best_index = vectorized_grid_max(
            levels_x, levels_y,
            lambda vx, vy: self.probe_policy.measure(
                backend.measure_batch, vx, vy))
        samples = [SweepSample(float(vx), float(vy), float(power), iteration)
                   for vx, vy, power in zip(vx_flat, vy_flat, powers)]
        best_power = powers[best_index]
        best = (float(best_power) if not math.isnan(best_power) else -math.inf,
                float(vx_flat[best_index]), float(vy_flat[best_index]))
        return samples, best

    def full_sweep(self, measure: MeasureSource,
                   step_v: float = 1.0) -> SweepResult:
        """Exhaustive grid scan of the full voltage range.

        This is the ~30 s baseline the paper wants to avoid for real-time
        operation, but it is also what the evaluation uses to generate
        the Fig. 15 / Fig. 21 heatmaps.  The whole grid is issued as a
        single batched probe.
        """
        config = self.config
        levels = bias_lattice(step_v, config.min_voltage_v,
                              config.max_voltage_v)
        backend = _as_measurement_backend(measure)
        samples, best = self._probe_grid(backend, levels, levels, iteration=0)
        duration = len(samples) * config.switch_interval_s
        return SweepResult(best_vx=best[1], best_vy=best[2],
                           best_power_dbm=best[0], samples=tuple(samples),
                           duration_s=duration, strategy="full")

    # ------------------------------------------------------------------ #
    # Algorithm 1: coarse-to-fine sweep
    # ------------------------------------------------------------------ #
    def coarse_to_fine_sweep(self, measure: MeasureSource) -> SweepResult:
        """Paper Algorithm 1.

        Each iteration probes a ``T x T`` grid across the current search
        window of each axis (one batched probe per iteration), then
        shrinks the window to the step-sized neighbourhood below the
        best probe for the next iteration.
        """
        backend = _as_measurement_backend(measure)
        config = self.config
        window_x = (config.min_voltage_v, config.max_voltage_v)
        window_y = (config.min_voltage_v, config.max_voltage_v)
        samples: List[SweepSample] = []
        best = (-math.inf, config.min_voltage_v, config.min_voltage_v)
        for iteration in range(1, config.iterations + 1):
            step_x = (window_x[1] - window_x[0]) / config.switches_per_axis
            step_y = (window_y[1] - window_y[0]) / config.switches_per_axis
            levels_x = np.linspace(window_x[0], window_x[1],
                                   config.switches_per_axis)
            levels_y = np.linspace(window_y[0], window_y[1],
                                   config.switches_per_axis)
            iteration_samples, iteration_best = self._probe_grid(
                backend, levels_x, levels_y, iteration=iteration)
            samples.extend(iteration_samples)
            if iteration_best[0] > best[0]:
                best = iteration_best
            # Shrink the window around the best probe (Algorithm 1's
            # return of [v - Vs, v] for each axis), clamped to the
            # original range.
            window_x = (max(config.min_voltage_v, iteration_best[1] - step_x),
                        min(config.max_voltage_v, iteration_best[1] + step_x))
            window_y = (max(config.min_voltage_v, iteration_best[2] - step_y),
                        min(config.max_voltage_v, iteration_best[2] + step_y))
        duration = len(samples) * config.switch_interval_s
        return SweepResult(best_vx=best[1], best_vy=best[2],
                           best_power_dbm=best[0], samples=tuple(samples),
                           duration_s=duration, strategy="coarse-to-fine")

    # ------------------------------------------------------------------ #
    # Grid-native searches (the N-D evaluation engine's control plane)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate_search_grid(grid: ProbeGrid) -> None:
        """The controller owns the voltage axes of its search grids."""
        for name in ("vx", "vy"):
            if name in grid:
                raise ValueError(
                    f"search grids must not carry a {name!r} axis: the "
                    "controller sweeps the bias voltages itself")

    def _probe_grid_points(self, backend,
                           point_values: Dict[str, np.ndarray],
                           grid_vx: np.ndarray, grid_vy: np.ndarray):
        """Issue one (re-voted) batched probe of per-point voltage grids.

        ``point_values`` maps each link-parameter axis to its ``(n,)``
        flattened per-point values; ``grid_vx`` / ``grid_vy`` are
        vx-major voltage grids, ``(n, k)`` (one row per point) or one
        ``(1, k)`` row shared by every point.  ``measure_grid`` backends
        get a shared row as is, so the engine evaluates the metasurface
        once per bias pair; the ``measure_batch`` fallback and the
        selection see it broadcast to ``(n, k)``, in the same probe
        order as per-point rows.  Probes through ``measure_grid`` (any
        axes) or, without link-parameter axes, ``measure_batch``, and
        returns the per-point first-maximum ``(power, vx, vy)`` arrays
        with NaN probes treated as ``-inf``, matching the scalar
        :meth:`_probe_grid` semantics row by row.
        """
        policy = self.probe_policy
        shape = np.broadcast_shapes(
            grid_vx.shape, grid_vy.shape,
            *((values.size, 1) for values in point_values.values()))
        full_vx = np.broadcast_to(grid_vx, shape)
        full_vy = np.broadcast_to(grid_vy, shape)
        if hasattr(backend, "measure_grid"):
            probe = ProbeGrid.aligned(
                vx=grid_vx, vy=grid_vy,
                **{name: values[:, None]
                   for name, values in point_values.items()})
            powers = policy.measure(backend.measure_grid, probe)
        elif not point_values and hasattr(backend, "measure_batch"):
            powers = policy.measure(backend.measure_batch, full_vx, full_vy)
        else:
            raise TypeError(
                "backend cannot probe this grid: it must provide "
                "measure_grid (any axes) or measure_batch (no "
                "link-parameter axes)")
        powers = np.asarray(powers, dtype=float)
        if powers.shape != shape:
            raise ValueError(
                f"batched sweep measurement returned shape {powers.shape} "
                f"for {shape} probes")
        masked = np.where(np.isnan(powers), -math.inf, powers)
        best_index = np.argmax(masked, axis=1)
        rows = np.arange(shape[0])
        return (masked[rows, best_index], full_vx[rows, best_index],
                full_vy[rows, best_index])

    def full_sweep_grid(self, backend, grid: ProbeGrid,
                        step_v: float = 1.0) -> GridSweepResult:
        """Exhaustive voltage scan at every point of a probe grid at once.

        One batched probe evaluates the full ``(grid point, Vx, Vy)``
        product; per cell the result equals :meth:`full_sweep` on a link
        rebuilt at that cell's axis values.  Every point scans the same
        lattice, so it travels as one shared ``(1, k²)`` row: the
        metasurface's Jones matrices depend only on (frequency, Vx, Vy),
        and the engine then computes them once per lattice point rather
        than once per (grid point, lattice point) cell.  Unless the grid
        has a frequency or receive-orientation axis, that row against
        the ``(n, 1)`` point axes is also the engine's separable layout:
        the whole probe is one small lattice x points matrix product
        (see :mod:`repro.channel.link`).
        """
        config = self.config
        levels = bias_lattice(step_v, config.min_voltage_v,
                              config.max_voltage_v)
        self._validate_search_grid(grid)
        point_values = grid.point_values()
        count = levels.size
        grid_vx = np.repeat(levels, count)[None, :]
        grid_vy = np.tile(levels, count)[None, :]
        best_power, best_vx, best_vy = self._probe_grid_points(
            backend, point_values, grid_vx, grid_vy)
        probes = count * count
        shape = grid.shape
        return GridSweepResult(
            grid=grid, best_vx=best_vx.reshape(shape),
            best_vy=best_vy.reshape(shape),
            best_power_dbm=best_power.reshape(shape),
            probe_count_per_point=probes,
            duration_s_per_point=probes * config.switch_interval_s,
            strategy="full")

    def coarse_to_fine_sweep_grid(self, backend,
                                  grid: ProbeGrid) -> GridSweepResult:
        """Paper Algorithm 1, run at every point of a probe grid at once.

        Each refinement iteration issues a single batched probe over all
        per-point ``T x T`` voltage grids; the per-point windows then
        shrink independently around each point's best probe.  Per cell
        the grids, first-maximum selection and NaN handling are
        identical to the scalar :meth:`coarse_to_fine_sweep`.  The first
        iteration's window is the full range for every point, so it
        starts as one shared ``(1,)`` window (one shared voltage row the
        engine evaluates the metasurface over once); the windows become
        per-point ``(n,)`` arrays once the first iteration's optima
        shrink them.
        """
        self._validate_search_grid(grid)
        point_values = grid.point_values()
        n = grid.size
        config = self.config
        switches = config.switches_per_axis
        low_x = low_y = np.full(1, config.min_voltage_v)
        high_x = high_y = np.full(1, config.max_voltage_v)
        best_power = np.full(n, -math.inf)
        best_vx = np.full(n, config.min_voltage_v)
        best_vy = np.full(n, config.min_voltage_v)
        for _iteration in range(config.iterations):
            step_x = (high_x - low_x) / switches
            step_y = (high_y - low_y) / switches
            levels_x = np.linspace(low_x, high_x, switches, axis=-1)
            levels_y = np.linspace(low_y, high_y, switches, axis=-1)
            # vx-major per-point grids, matching the scalar meshgrid order.
            grid_vx = np.repeat(levels_x, switches, axis=-1)
            grid_vy = np.tile(levels_y, (1, switches))
            iter_power, iter_vx, iter_vy = self._probe_grid_points(
                backend, point_values, grid_vx, grid_vy)
            improved = iter_power > best_power
            best_power = np.where(improved, iter_power, best_power)
            best_vx = np.where(improved, iter_vx, best_vx)
            best_vy = np.where(improved, iter_vy, best_vy)
            low_x = np.maximum(config.min_voltage_v, iter_vx - step_x)
            high_x = np.minimum(config.max_voltage_v, iter_vx + step_x)
            low_y = np.maximum(config.min_voltage_v, iter_vy - step_y)
            high_y = np.minimum(config.max_voltage_v, iter_vy + step_y)
        shape = grid.shape
        return GridSweepResult(
            grid=grid, best_vx=best_vx.reshape(shape),
            best_vy=best_vy.reshape(shape),
            best_power_dbm=best_power.reshape(shape),
            probe_count_per_point=config.probe_count,
            duration_s_per_point=config.estimated_duration_s,
            strategy="coarse-to-fine")

    def optimize_grid(self, backend, grid: ProbeGrid,
                      exhaustive: bool = False,
                      step_v: float = 1.0) -> GridSweepResult:
        """Run the configured search at every point of a probe grid.

        The N-D generalisation of :meth:`optimize`: ``grid`` names any
        subset of :data:`repro.channel.grid.SWEEP_AXES` (a 0-d grid
        reduces to a single scalar search) and the backend is probed
        once per refinement iteration for the entire grid.
        """
        if exhaustive:
            return self.full_sweep_grid(backend, grid, step_v=step_v)
        return self.coarse_to_fine_sweep_grid(backend, grid)

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def optimize(self, measure: MeasureSource,
                 exhaustive: bool = False,
                 step_v: float = 1.0) -> SweepResult:
        """Run the configured search strategy."""
        backend = _as_measurement_backend(measure)
        if exhaustive:
            return self.full_sweep(backend, step_v=step_v)
        return self.coarse_to_fine_sweep(backend)

    def full_sweep_duration_s(self, step_v: float = 1.0) -> float:
        """Predicted duration of the exhaustive scan (paper: ~30 s at 1 V).

        Note the paper's 30 s figure refers to scanning each axis across
        its 31 levels; the exhaustive 2-D grid is far slower, which is
        exactly why Algorithm 1 exists.
        """
        config = self.config
        levels = bias_lattice(step_v, config.min_voltage_v,
                              config.max_voltage_v).size
        return levels ** 2 * config.switch_interval_s


__all__ = [
    "MeasureCallback",
    "MeasureSource",
    "bias_lattice",
    "vectorized_grid_max",
    "VoltageSweepConfig",
    "GridSweepResult",
    "SweepSample",
    "SweepResult",
    "CentralizedController",
]
