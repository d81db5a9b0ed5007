"""Generic parameter-sweep drivers used by the figure runners.

Every evaluation figure in the paper is a sweep over one or two
parameters with received power (or capacity) recorded with and without
the metasurface.  These helpers implement those loops once so the
per-figure runners stay declarative.

Every link-parameter sweep runs on one engine:

* :func:`grid_sweep` — the N-D grid engine.  A
  :class:`~repro.channel.grid.ProbeGrid` names any subset of the link-
  parameter axes (e.g. frequency x distance) and one link (plus its
  baseline) covers the whole product grid: the controller optimizes
  every cell together through batched grid probes and the baseline is a
  single vectorized pass.  The two-axis figure runners use this.
* :func:`multi_axis_sweep` — its one-axis view, and the axis-named
  scenario wrappers over it (:func:`frequency_sweep`,
  :func:`tx_power_sweep`, :func:`distance_sweep`).  This is what the
  Fig. 16-19/22 runners use.

:func:`comparison_sweep` is the per-point loop over arbitrary link
factories: the scalar reference the parity tests compare the engine
against, and the path for factories that vary more than one parameter.

The figure-level consumers of these drivers are registered experiments
(see :mod:`repro.experiments.registry`); run them by name through
:class:`~repro.experiments.runner.Runner` or
``python -m repro.experiments`` rather than hand-rolling sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.backend import LinkBackend
from repro.channel.capacity import spectral_efficiency_from_powers
from repro.channel.grid import ProbeGrid
from repro.channel.link import WirelessLink
from repro.core.controller import (
    CentralizedController,
    VoltageSweepConfig,
    bias_lattice,
)


@dataclass(frozen=True)
class SweepPoint:
    """One point of a with/without comparison sweep."""

    parameter: float
    power_with_dbm: float
    power_without_dbm: float
    best_vx: float
    best_vy: float

    @property
    def gain_db(self) -> float:
        """Received-power improvement the surface provides at this point."""
        return self.power_with_dbm - self.power_without_dbm


def _default_controller() -> CentralizedController:
    return CentralizedController(
        VoltageSweepConfig(iterations=2, switches_per_axis=5))


def optimize_link(link: WirelessLink,
                  controller: Optional[CentralizedController] = None,
                  exhaustive: bool = False,
                  step_v: float = 3.0) -> Tuple[float, float, float]:
    """Find the best (power, vx, vy) for a link via the controller.

    Returns ``(best_power_dbm, best_vx, best_vy)``.
    """
    controller = controller or _default_controller()
    result = controller.optimize(LinkBackend(link),
                                 exhaustive=exhaustive, step_v=step_v)
    return result.best_power_dbm, result.best_vx, result.best_vy


@dataclass(frozen=True)
class GridComparison:
    """With/without comparison over an N-D probe grid.

    Every array has ``grid.shape``: the per-cell optimized received
    power of the with-surface link, the matching no-surface baseline,
    and the bias pair the search chose at each cell.
    """

    grid: ProbeGrid
    power_with_dbm: np.ndarray
    power_without_dbm: np.ndarray
    best_vx: np.ndarray
    best_vy: np.ndarray

    @property
    def gain_db(self) -> np.ndarray:
        """Per-cell received-power improvement the surface provides."""
        return self.power_with_dbm - self.power_without_dbm


def grid_sweep(grid: ProbeGrid,
               link: WirelessLink,
               baseline_link: Optional[WirelessLink] = None,
               controller: Optional[CentralizedController] = None,
               exhaustive: bool = False,
               step_v: float = 3.0,
               backend=None) -> GridComparison:
    """Vectorized with/without comparison over an N-D probe grid.

    ``grid`` names any subset of :data:`repro.channel.grid.SWEEP_AXES`
    (e.g. a frequency x distance product) and the surface is optimized
    at every cell — all cells probed together through batched grid
    calls — while ``baseline_link`` (default: ``link.baseline()``) is a
    single vectorized pass of the evaluation engine over the same grid.
    ``backend`` overrides the measurement plane the controller probes
    (default: a noiseless :class:`LinkBackend` over ``link``).
    """
    controller = controller or _default_controller()
    backend = backend if backend is not None else LinkBackend(link)
    result = controller.optimize_grid(backend, grid, exhaustive=exhaustive,
                                      step_v=step_v)
    baseline_link = baseline_link if baseline_link is not None else link.baseline()
    without = np.broadcast_to(
        np.asarray(baseline_link.evaluate(grid), dtype=float),
        grid.shape).copy()
    return GridComparison(grid=grid,
                          power_with_dbm=result.best_power_dbm,
                          power_without_dbm=without,
                          best_vx=result.best_vx,
                          best_vy=result.best_vy)


def multi_axis_sweep(axis: str,
                     values: Sequence[float],
                     link: WirelessLink,
                     baseline_link: Optional[WirelessLink] = None,
                     controller: Optional[CentralizedController] = None,
                     exhaustive: bool = False,
                     step_v: float = 3.0,
                     backend=None) -> List[SweepPoint]:
    """With/without comparison along one link-parameter axis.

    The one-axis view of :func:`grid_sweep` (``axis`` is one of
    :data:`repro.channel.grid.SWEEP_AXES`): the surface is optimized at
    every axis value, all points probed together, and compared against
    ``baseline_link``.  Per point the optimization grids, first-maximum
    selection and NaN handling are identical to the scalar
    :func:`comparison_sweep` path.  ``backend`` overrides the
    measurement plane as in :func:`grid_sweep`; pass a
    :class:`repro.api.ReceiverSweepBackend` for noisy-receiver
    semantics.
    """
    values = np.asarray(values, dtype=float).ravel()
    comparison = grid_sweep(ProbeGrid.product(**{axis: values}), link,
                            baseline_link=baseline_link,
                            controller=controller, exhaustive=exhaustive,
                            step_v=step_v, backend=backend)
    return [SweepPoint(parameter=float(value),
                       power_with_dbm=float(power),
                       power_without_dbm=float(base),
                       best_vx=float(vx), best_vy=float(vy))
            for value, vx, vy, power, base in zip(
                values, comparison.best_vx, comparison.best_vy,
                comparison.power_with_dbm, comparison.power_without_dbm)]


def comparison_sweep(parameter_values: Sequence[float],
                     link_factory: Callable[[float], WirelessLink],
                     baseline_factory: Callable[[float], WirelessLink],
                     controller: Optional[CentralizedController] = None,
                     exhaustive: bool = False,
                     step_v: float = 3.0) -> List[SweepPoint]:
    """Sweep a parameter, optimizing the surface at every point.

    The per-point reference loop: ``link_factory(value)`` must return
    the with-surface link and ``baseline_factory(value)`` the matching
    no-surface link.  Factories may vary anything with the parameter;
    when only a single link parameter changes, prefer
    :func:`multi_axis_sweep`, which evaluates the whole axis in
    vectorized passes.
    """
    points: List[SweepPoint] = []
    for value in parameter_values:
        with_link = link_factory(value)
        without_link = baseline_factory(value)
        best_power, best_vx, best_vy = optimize_link(
            with_link, controller=controller, exhaustive=exhaustive,
            step_v=step_v)
        points.append(SweepPoint(
            parameter=float(value),
            power_with_dbm=best_power,
            power_without_dbm=without_link.received_power_dbm(),
            best_vx=best_vx,
            best_vy=best_vy,
        ))
    return points


def _scenario_axis_sweep(axis: str,
                         values: Sequence[float],
                         scenario_factory: Callable[[float], "object"],
                         **kwargs) -> List[SweepPoint]:
    """Shared implementation of the axis-named scenario sweeps.

    Builds one scenario (at the first axis value) and sweeps the axis
    on its link, which assumes the factory varies only that axis — true
    of every canonical scenario.  Factories that vary more go through
    :func:`comparison_sweep`.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        return []
    scenario = scenario_factory(float(values[0]))
    return multi_axis_sweep(axis, values, scenario.link(),
                            baseline_link=scenario.baseline_link(),
                            **kwargs)


def distance_sweep(distances_m: Sequence[float],
                   scenario_factory: Callable[[float], "object"],
                   **kwargs) -> List[SweepPoint]:
    """Sweep the Tx-Rx (or Tx-surface) distance of a scenario.

    ``scenario_factory(distance)`` must return an object exposing
    ``link()`` and ``baseline_link()`` (the scenario classes do).
    """
    return _scenario_axis_sweep("distance", distances_m, scenario_factory,
                                **kwargs)


def frequency_sweep(frequencies_hz: Sequence[float],
                    scenario_factory: Callable[[float], "object"],
                    **kwargs) -> List[SweepPoint]:
    """Sweep the operating frequency of a scenario."""
    return _scenario_axis_sweep("frequency", frequencies_hz, scenario_factory,
                                **kwargs)


def tx_power_sweep(tx_powers_dbm: Sequence[float],
                   scenario_factory: Callable[[float], "object"],
                   **kwargs) -> List[SweepPoint]:
    """Sweep the transmit power of a scenario."""
    return _scenario_axis_sweep("tx_power", tx_powers_dbm, scenario_factory,
                                **kwargs)


def voltage_grid_sweep(link: WirelessLink,
                       step_v: float = 2.0,
                       v_min: float = 0.0,
                       v_max: float = 30.0) -> Dict[Tuple[float, float], float]:
    """Exhaustive (Vx, Vy) grid of received power, for heatmap figures."""
    if v_max <= v_min:
        raise ValueError("v_max must exceed v_min")
    levels = bias_lattice(step_v, v_min, v_max)
    vx_grid, vy_grid = np.meshgrid(levels, levels, indexing="ij")
    powers = link.evaluate_grid(ProbeGrid.aligned(vx=vx_grid.ravel(),
                                                  vy=vy_grid.ravel()))
    return {(float(vx), float(vy)): float(power)
            for vx, vy, power in zip(vx_grid.ravel(), vy_grid.ravel(), powers)}


def sweep_capacity(points: Sequence[SweepPoint],
                   noise_power_dbm: float) -> List[Tuple[float, float, float]]:
    """Convert sweep powers into spectral efficiencies.

    One vectorized Shannon evaluation over the whole sweep; returns
    ``(parameter, efficiency_with, efficiency_without)`` tuples.
    """
    if not points:
        return []
    with_eff = spectral_efficiency_from_powers(
        np.array([point.power_with_dbm for point in points]), noise_power_dbm)
    without_eff = spectral_efficiency_from_powers(
        np.array([point.power_without_dbm for point in points]),
        noise_power_dbm)
    return [(point.parameter, float(w), float(wo))
            for point, w, wo in zip(points, with_eff, without_eff)]


__all__ = [
    "SweepPoint",
    "GridComparison",
    "optimize_link",
    "grid_sweep",
    "multi_axis_sweep",
    "comparison_sweep",
    "distance_sweep",
    "frequency_sweep",
    "tx_power_sweep",
    "voltage_grid_sweep",
    "sweep_capacity",
]
