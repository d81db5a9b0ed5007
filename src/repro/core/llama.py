"""End-to-end LLAMA system orchestration (paper Sec. 3.1, Fig. 5).

:class:`LlamaSystem` wires the four architectural elements together:

* the **metasurface** (via :class:`ProgrammableRotator`),
* the **centralized controller** running Algorithm 1,
* the **programmable power supply** that applies the bias voltages and
  bounds the switching rate,
* the **endpoints**, represented by a :class:`WirelessLink` whose
  receiver reports signal power back to the controller.

The system exposes the operations the paper's evaluation performs:
optimize the link in real time, compare against the no-surface baseline,
sweep voltages exhaustively for heatmaps, and estimate the realised
rotation angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.channel.grid import ProbeGrid
from repro.channel.link import DeploymentMode, LinkConfiguration, WirelessLink
from repro.core.controller import (
    CentralizedController,
    SweepResult,
    VoltageSweepConfig,
)
from repro.core.rotation_estimation import (
    RotationAngleEstimator,
    RotationEstimate,
)
from repro.core.rotator import ProgrammableRotator, RotatorConfig
from repro.core.synchronization import SampleVoltageSynchronizer
from repro.hardware.power_supply import ProgrammablePowerSupply
from repro.metasurface.surface import SurfaceMode


class _SupplyMeasurementBackend:
    """Measurement backend that keeps the supply/rotator in the loop.

    Every probed bias pair programs the power supply (which advances the
    simulated clock and quantises the pair through the rotator) in grid
    order, exactly as the sequential hardware would, but the link
    physics for the whole grid is evaluated in one vectorized pass over
    the applied voltages.  The supply sets bias voltages only, so a grid
    with any other axis raises ``TypeError``.
    """

    def __init__(self, system: "LlamaSystem"):
        self._system = system

    def measure_grid(self, grid: ProbeGrid) -> np.ndarray:
        """Program the supply per probe; evaluate the physics in one pass."""
        if grid.sweep_names:
            raise TypeError("the supply-in-the-loop backend probes bias-only "
                            f"grids, got link-parameter axes "
                            f"{grid.sweep_names}")
        system = self._system
        vx, vy = grid.bias_points()
        applied_x = np.empty(vx.size, dtype=float)
        applied_y = np.empty(vy.size, dtype=float)
        for index, (a, b) in enumerate(zip(vx.ravel(), vy.ravel())):
            system.supply.set_bias_pair(float(a), float(b))
            applied_x[index], applied_y[index] = system.rotator.bias_voltages
        system._measure_count += vx.size
        powers = system.link.evaluate_grid(
            ProbeGrid.aligned(vx=applied_x, vy=applied_y))
        return powers.reshape(grid.shape)


@dataclass(frozen=True)
class LlamaResult:
    """Outcome of one end-to-end optimization run."""

    best_vx: float
    best_vy: float
    optimized_power_dbm: float
    baseline_power_dbm: float
    sweep: SweepResult
    rotation_angle_deg: float

    @property
    def power_gain_db(self) -> float:
        """Received-power improvement over the no-surface baseline."""
        return self.optimized_power_dbm - self.baseline_power_dbm


class LlamaSystem:
    """The complete LLAMA control loop against a (simulated) link.

    Parameters
    ----------
    link_configuration:
        Link under optimization; must reference a metasurface and a
        transmissive or reflective deployment.
    sweep_config:
        Controller search parameters (Algorithm 1 defaults).
    rotator_config:
        Bias-chain configuration.
    supply:
        Power-supply simulation; one is created if not provided.
    """

    def __init__(self,
                 link_configuration: LinkConfiguration,
                 sweep_config: Optional[VoltageSweepConfig] = None,
                 rotator_config: Optional[RotatorConfig] = None,
                 supply: Optional[ProgrammablePowerSupply] = None):
        if link_configuration.metasurface is None:
            raise ValueError("LlamaSystem requires a metasurface in the link")
        if link_configuration.deployment is DeploymentMode.NONE:
            raise ValueError(
                "LlamaSystem requires a transmissive or reflective deployment")
        self.link = WirelessLink(link_configuration)
        mode = (SurfaceMode.TRANSMISSIVE
                if link_configuration.deployment is DeploymentMode.TRANSMISSIVE
                else SurfaceMode.REFLECTIVE)
        self.rotator = ProgrammableRotator(link_configuration.metasurface,
                                           config=rotator_config, mode=mode)
        self.controller = CentralizedController(sweep_config)
        self.supply = supply if supply is not None else ProgrammablePowerSupply()
        self.supply.enable_output(True)
        self.supply.on_voltage_change = self._apply_voltages
        self._measure_count = 0
        self._backend = _SupplyMeasurementBackend(self)

    # ------------------------------------------------------------------ #
    # Plumbing between supply, rotator and link
    # ------------------------------------------------------------------ #
    def _apply_voltages(self, vx: float, vy: float) -> None:
        self.rotator.set_bias_voltages(vx, vy)

    # ------------------------------------------------------------------ #
    # Public operations
    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> _SupplyMeasurementBackend:
        """The supply-in-the-loop measurement backend of this system."""
        return self._backend

    @property
    def measurement_count(self) -> int:
        """Number of power reports the controller has consumed."""
        return self._measure_count

    def baseline_power_dbm(self) -> float:
        """Received power with the metasurface removed."""
        return self.link.baseline().received_power_dbm()

    def received_power_dbm(self, vx: float, vy: float) -> float:
        """Received power at an explicit bias pair (for sweeps/heatmaps)."""
        return self.link.received_power_dbm(vx, vy)

    def optimize(self, exhaustive: bool = False,
                 step_v: float = 1.0) -> LlamaResult:
        """Run the controller search and report the end-to-end outcome."""
        sweep = self.controller.optimize(self._backend, exhaustive=exhaustive,
                                         step_v=step_v)
        # Leave the system parked at the optimum the controller found.
        self.supply.set_bias_pair(sweep.best_vx, sweep.best_vy)
        vx, vy = self.rotator.bias_voltages
        rotation = self.rotator.rotation_angle_deg(
            self.link.configuration.frequency_hz)
        return LlamaResult(
            best_vx=vx,
            best_vy=vy,
            optimized_power_dbm=self.link.received_power_dbm(vx, vy),
            baseline_power_dbm=self.baseline_power_dbm(),
            sweep=sweep,
            rotation_angle_deg=rotation,
        )

    def heatmap_sweep(self, step_v: float = 2.0) -> SweepResult:
        """Exhaustive sweep used to produce Fig. 15 / Fig. 21 heatmaps."""
        return self.controller.full_sweep(self._backend, step_v=step_v)

    def estimate_rotation(self,
                          orientation_step_deg: float = 2.0,
                          exhaustive_voltage_sweep: bool = False) -> RotationEstimate:
        """Run the Sec. 3.4 rotation-angle estimation on this link.

        The turntable probes the link directly (the supply cannot rotate
        the receiver): each orientation scan is one grid probe over
        ``rx_orientation`` and the voltage searches pin it.
        """
        from repro.api.backend import LinkBackend
        estimator = RotationAngleEstimator(
            sweep_config=self.controller.config,
            orientation_step_deg=orientation_step_deg)
        return estimator.estimate(
            LinkBackend(self.link),
            exhaustive_voltage_sweep=exhaustive_voltage_sweep)

    def synchronizer_for_sweep(self, initial_vx: float, initial_vy: float,
                               step_vx: float, step_vy: float,
                               start_offset_s: float = 0.0) -> SampleVoltageSynchronizer:
        """Build the Eq. 13 synchronizer matching the supply's timing."""
        return SampleVoltageSynchronizer(
            initial_vx=initial_vx,
            initial_vy=initial_vy,
            voltage_step_x=step_vx,
            voltage_step_y=step_vy,
            switch_interval_s=self.supply.switch_interval_s,
            start_offset_s=start_offset_s,
        )


__all__ = ["LlamaSystem", "LlamaResult"]
