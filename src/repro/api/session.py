"""The :class:`LinkSession` facade: one link under measurement.

A session owns everything a measurement campaign over one link needs —
the :class:`~repro.channel.link.WirelessLink` physics, the
:class:`~repro.core.rotator.ProgrammableRotator` and
:class:`~repro.hardware.power_supply.ProgrammablePowerSupply` bundle
(when a metasurface is deployed), a configured
:class:`~repro.core.controller.CentralizedController` and the matching
no-surface baseline — and exposes the batched measurement plane as its
primary surface.  It replaces the ad-hoc ``WirelessLink(...)``
construction sprinkled through the seed's controllers, estimators and
figure runners:

* ``measure_grid`` / ``optimize_grid`` probe and optimize a whole
  :class:`~repro.channel.grid.ProbeGrid` over bias voltages and
  link-parameter axes; ``measure`` is its scalar convenience (a 0-d
  grid),
* ``optimize`` / ``full_sweep`` run Algorithm 1 / the exhaustive grid
  against the session's backend and park the supply at the optimum,
* ``with_rx_orientation`` returns a cached per-orientation session so
  turntable procedures never rebuild links probe by probe,
* ``estimate_rotation`` runs the Sec. 3.4 procedure, one grid probe per
  orientation scan.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple, Union

from repro.api.backend import LinkBackend
from repro.channel.grid import ProbeGrid
from repro.channel.link import (
    DeploymentMode,
    LinkConfiguration,
    LinkReport,
    WirelessLink,
)
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
from repro.faults import (
    FaultSchedule,
    FaultyBackend,
    HealthMonitor,
    HealthReport,
    ProbePolicy,
    RetryingBackend,
    RetryPolicy,
)
from repro.hardware.power_supply import ProgrammablePowerSupply
from repro.metasurface.surface import SurfaceMode


class LinkSession:
    """A measurement session over one link configuration.

    Parameters
    ----------
    configuration:
        The link under measurement (a :class:`LinkConfiguration`, or an
        existing :class:`WirelessLink` to adopt).
    sweep_config:
        Controller search parameters (Algorithm 1 defaults).
    rotator_config:
        Bias-chain configuration for the rotator/supply bundle (only
        used when a metasurface is deployed).
    supply:
        Power-supply simulation; one is created when a surface is
        deployed and none is provided.
    fault_schedule:
        Optional :class:`~repro.faults.FaultSchedule`; when it is
        active the session's backend is wrapped in a
        :class:`~repro.faults.FaultyBackend`, so every probe runs
        through the deterministic fault plane.
    retry_policy:
        Optional :class:`~repro.faults.RetryPolicy`; probes then run
        under a :class:`~repro.faults.RetryingBackend` (virtual-clock
        backoff, typed retryable classification).
    probe_policy:
        Optional :class:`~repro.faults.ProbePolicy` for the
        controller's median-of-k probe re-voting.
    """

    def __init__(self,
                 configuration: Union[LinkConfiguration, WirelessLink],
                 sweep_config: Optional[VoltageSweepConfig] = None,
                 rotator_config: Optional[RotatorConfig] = None,
                 supply: Optional[ProgrammablePowerSupply] = None,
                 fault_schedule: Optional[FaultSchedule] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 probe_policy: Optional[ProbePolicy] = None):
        if isinstance(configuration, WirelessLink):
            self.link = configuration
        else:
            self.link = WirelessLink(configuration)
        config = self.link.configuration
        self.monitor = HealthMonitor()
        self.fault_schedule = fault_schedule
        self.backend = LinkBackend(self.link)
        if fault_schedule is not None and fault_schedule.spec.active:
            self.backend = FaultyBackend(self.backend, fault_schedule,
                                         monitor=self.monitor)
        if retry_policy is not None:
            self.backend = RetryingBackend(self.backend, retry_policy,
                                           monitor=self.monitor,
                                           schedule=fault_schedule)
        self.controller = CentralizedController(sweep_config,
                                                probe_policy=probe_policy)
        self.rotator: Optional[ProgrammableRotator] = None
        self.supply: Optional[ProgrammablePowerSupply] = None
        if (config.metasurface is not None and
                config.deployment is not DeploymentMode.NONE):
            mode = (SurfaceMode.TRANSMISSIVE
                    if config.deployment is DeploymentMode.TRANSMISSIVE
                    else SurfaceMode.REFLECTIVE)
            self.rotator = ProgrammableRotator(config.metasurface,
                                               config=rotator_config,
                                               mode=mode)
            self.supply = supply if supply is not None else ProgrammablePowerSupply()
            self.supply.enable_output(True)
            self.supply.on_voltage_change = self.rotator.set_bias_voltages
        self._baseline: Optional["LinkSession"] = None
        self._orientation_sessions: Dict[float, "LinkSession"] = {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def configuration(self) -> LinkConfiguration:
        """The link configuration under measurement."""
        return self.link.configuration

    @property
    def has_surface(self) -> bool:
        """True when a metasurface participates in the link."""
        config = self.link.configuration
        return (config.metasurface is not None and
                config.deployment is not DeploymentMode.NONE)

    @property
    def health(self) -> HealthReport:
        """Probe / retry / fault accounting for this session.

        All zeros for a session with no fault plane wired in; derived
        sessions (:meth:`baseline`, :meth:`with_rx_orientation`) are
        always fault-free and keep their own clean report.
        """
        return self.monitor.report()

    # ------------------------------------------------------------------ #
    # Measurement plane
    # ------------------------------------------------------------------ #
    def measure(self, vx: float = 0.0, vy: float = 0.0) -> float:
        """Received power (dBm) at one bias pair (a 0-d grid probe)."""
        return float(self.backend.measure_grid(ProbeGrid.aligned(vx=vx,
                                                                 vy=vy)))

    def measure_grid(self, grid: ProbeGrid) -> np.ndarray:
        """Received power (dBm) over an N-D probe grid in one pass.

        ``grid`` is a :class:`~repro.channel.grid.ProbeGrid` over bias
        voltages and any subset of :data:`repro.channel.grid.SWEEP_AXES`
        — e.g. a frequency x distance surface; the returned array has
        ``grid.shape``.  The voltage-independent direct and clutter
        fields are computed once for the whole grid.
        """
        if not isinstance(grid, ProbeGrid):
            raise TypeError("measure_grid takes a ProbeGrid, got "
                            f"{type(grid).__name__}")
        return self.backend.measure_grid(grid)

    def optimize_grid(self, grid, exhaustive: bool = False,
                      step_v: float = 1.0):
        """Run the configured bias search at every grid point at once.

        ``grid`` is a :class:`~repro.channel.grid.ProbeGrid` over
        link-parameter axes only (the controller owns the voltages);
        returns a :class:`repro.core.controller.GridSweepResult` whose
        per-cell optima match running :meth:`optimize` on a session
        rebuilt at each cell's axis values.
        """
        return self.controller.optimize_grid(self.backend, grid,
                                             exhaustive=exhaustive,
                                             step_v=step_v)

    def evaluate(self, vx: float = 0.0, vy: float = 0.0) -> LinkReport:
        """Full link report at one bias pair."""
        return self.link.evaluate(vx, vy)

    def noise_power_dbm(self) -> float:
        """Receiver noise-plus-interference floor."""
        return self.link.noise_power_dbm()

    # ------------------------------------------------------------------ #
    # Control plane
    # ------------------------------------------------------------------ #
    def apply(self, vx: float, vy: float) -> Tuple[float, float]:
        """Program the supply/rotator bundle; returns the applied pair.

        No-op (returning the requested pair) for baseline sessions that
        have no surface to bias.
        """
        if self.supply is None or self.rotator is None:
            return (float(vx), float(vy))
        self.supply.set_bias_pair(vx, vy)
        return self.rotator.bias_voltages

    def optimize(self, exhaustive: bool = False,
                 step_v: float = 1.0) -> SweepResult:
        """Run the configured search and park the hardware at the best pair."""
        result = self.controller.optimize(self.backend, exhaustive=exhaustive,
                                          step_v=step_v)
        self.apply(result.best_vx, result.best_vy)
        return result

    def full_sweep(self, step_v: float = 1.0) -> SweepResult:
        """Exhaustive controller sweep (Fig. 15 / Fig. 21 heatmap path)."""
        return self.controller.full_sweep(self.backend, step_v=step_v)

    # ------------------------------------------------------------------ #
    # Derived sessions
    # ------------------------------------------------------------------ #
    def baseline(self) -> "LinkSession":
        """The matching no-surface session (cached)."""
        if self.has_surface:
            if self._baseline is None:
                self._baseline = LinkSession(
                    self.link.configuration.without_surface(),
                    sweep_config=self.controller.config)
            return self._baseline
        return self

    def baseline_power_dbm(self) -> float:
        """Received power with the metasurface removed."""
        return self.baseline().measure()

    def power_gain_over_baseline_db(self, vx: float, vy: float) -> float:
        """Received-power improvement over the no-surface baseline (dB)."""
        return self.measure(vx, vy) - self.baseline_power_dbm()

    def with_rx_orientation(self, orientation_deg: float) -> "LinkSession":
        """Session with the receive antenna rotated (cached per angle).

        One fault-free session per probed orientation, built once and
        reused across every measurement at that orientation.
        """
        key = float(orientation_deg)
        if key not in self._orientation_sessions:
            config = self.link.configuration
            self._orientation_sessions[key] = LinkSession(
                replace(config, rx_antenna=config.rx_antenna.rotated(key)),
                sweep_config=self.controller.config)
        return self._orientation_sessions[key]

    def estimate_rotation(self,
                          orientation_step_deg: float = 2.0,
                          exhaustive_voltage_sweep: bool = False) -> RotationEstimate:
        """Run the Sec. 3.4 rotation-angle estimation on this link.

        Probes the fault-free link: the turntable procedure is a
        calibration step, outside the session's fault plane.
        """
        estimator = RotationAngleEstimator(
            sweep_config=self.controller.config,
            orientation_step_deg=orientation_step_deg)
        return estimator.estimate(
            LinkBackend(self.link),
            exhaustive_voltage_sweep=exhaustive_voltage_sweep)


__all__ = ["LinkSession"]
