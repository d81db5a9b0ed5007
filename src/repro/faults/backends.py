"""Fault-injecting measurement backends.

:class:`FaultyBackend` wraps any backend of the ``measure`` /
``measure_batch`` / ``measure_grid`` protocol stack and realizes the
probe-plane faults of its :class:`~repro.faults.spec.FaultSchedule`:

* **actuator faults** perturb the *commanded* bias voltages before the
  probe — quantization snap, stuck-at latching, supply-brownout
  clipping — so the wrapped backend measures the operating point the
  broken hardware actually applied;
* **data faults** corrupt the *reported* powers after the probe —
  impulse-noise bursts (± dB) and dropouts (NaN);
* **call faults** raise a retryable
  :class:`~repro.faults.errors.ProbeFaultError` before any probing
  happens (the hook :class:`~repro.faults.retry.RetryingBackend`
  exists for).

Every draw comes from a named stream of the schedule, so traces replay
exactly, and an *inactive* spec takes a pure delegation fast path: no
streams are consumed and results are bit-identical to the bare
backend (pinned by the zero-fault parity suite and the <5% overhead
benchmark).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.channel.grid import ProbeGrid
from repro.faults.errors import ProbeFaultError
from repro.faults.health import HealthMonitor
from repro.faults.spec import FaultSchedule


class FaultyBackend:
    """A measurement backend with scheduled faults injected.

    Parameters
    ----------
    backend:
        The backend to wrap.  ``measure`` / ``measure_batch`` are
        required; ``measure_grid`` is forwarded only when the wrapped
        backend provides it.
    schedule:
        The fault plan and its seeded streams.
    monitor:
        Optional health monitor tallying probes and faults seen.
    """

    def __init__(self, backend, schedule: FaultSchedule,
                 monitor: Optional[HealthMonitor] = None):
        self.backend = backend
        self.schedule = schedule
        self.monitor = monitor
        # Pure-delegation fast path: nothing to draw, nothing to copy.
        self._inactive = not schedule.spec.perturbs_probes

    # ------------------------------------------------------------------ #
    # Fault machinery
    # ------------------------------------------------------------------ #
    def _note(self, kind: str, count: int) -> None:
        if self.monitor is not None:
            self.monitor.record_fault(kind, count)

    def _maybe_raise(self) -> None:
        """Call-level fault: raise before probing (retryable)."""
        spec = self.schedule.spec
        if spec.probe_error_rate <= 0:
            return
        if self.schedule.fault_fires("probe.error", spec.probe_error_rate):
            self._note("probe.error", 1)
            raise ProbeFaultError("injected probe I/O fault")

    def _perturb_voltages(self, vx, vy,
                          shape: Optional[Tuple[int, ...]] = None):
        """Apply actuator/supply faults to the commanded bias pair.

        ``shape`` (when given) is the full per-probe shape the fault
        masks must cover; the voltages are broadcast up to it so each
        probed element draws its own fault.
        """
        spec = self.schedule.spec
        vx = np.asarray(vx, dtype=float)
        vy = np.asarray(vy, dtype=float)
        if not spec.perturbs_voltages:
            return vx, vy
        if shape is None:
            shape = np.broadcast_shapes(vx.shape, vy.shape)
        vx_b = np.array(np.broadcast_to(vx, shape), dtype=float)
        vy_b = np.array(np.broadcast_to(vy, shape), dtype=float)
        if spec.quantize_step_v > 0:
            step = spec.quantize_step_v
            vx_b = np.round(vx_b / step) * step
            vy_b = np.round(vy_b / step) * step
        if spec.stuck_rate > 0:
            mask = self.schedule.fault_mask("actuator.stuck", shape,
                                            spec.stuck_rate)
            count = int(np.count_nonzero(mask))
            if count:
                vx_b = np.where(mask, spec.stuck_voltage_v, vx_b)
                vy_b = np.where(mask, spec.stuck_voltage_v, vy_b)
                self._note("actuator.stuck", count)
        if spec.brownout_rate > 0:
            mask = self.schedule.fault_mask("supply.brownout", shape,
                                            spec.brownout_rate)
            count = int(np.count_nonzero(mask))
            if count:
                vx_b = np.where(mask, np.minimum(vx_b, spec.brownout_clip_v),
                                vx_b)
                vy_b = np.where(mask, np.minimum(vy_b, spec.brownout_clip_v),
                                vy_b)
                self._note("supply.brownout", count)
        return vx_b, vy_b

    def _corrupt_powers(self, powers) -> np.ndarray:
        """Apply data-plane faults to reported powers."""
        spec = self.schedule.spec
        powers = np.asarray(powers, dtype=float)
        shape = powers.shape
        if spec.noise_burst_rate > 0:
            mask = self.schedule.fault_mask("probe.noise", shape,
                                            spec.noise_burst_rate)
            # Signs are drawn unconditionally so the stream stays
            # aligned across rate sweeps (the nested-draw contract).
            signs = self.schedule.signs("probe.noise.sign", shape)
            count = int(np.count_nonzero(mask))
            if count:
                powers = np.where(mask,
                                  powers + signs * spec.noise_burst_db,
                                  powers)
                self._note("probe.noise", count)
        if spec.probe_dropout_rate > 0:
            mask = self.schedule.fault_mask("probe.dropout", shape,
                                            spec.probe_dropout_rate)
            count = int(np.count_nonzero(mask))
            if count:
                powers = np.where(mask, np.nan, powers)
                self._note("probe.dropout", count)
        return powers

    def _count_probe(self) -> None:
        if self.monitor is not None:
            self.monitor.record_probe()

    # ------------------------------------------------------------------ #
    # The probe protocol stack
    # ------------------------------------------------------------------ #
    def measure(self, vx: float, vy: float) -> float:
        """One scalar probe through the fault plane."""
        if self._inactive:
            return self.backend.measure(vx, vy)
        self._count_probe()
        self._maybe_raise()
        vx_f, vy_f = self._perturb_voltages(vx, vy, shape=())
        power = self.backend.measure(float(vx_f), float(vy_f))
        return float(self._corrupt_powers(power))

    def measure_batch(self, vx, vy) -> np.ndarray:
        """One batched probe through the fault plane."""
        if self._inactive:
            return self.backend.measure_batch(vx, vy)
        self._count_probe()
        self._maybe_raise()
        vx_f, vy_f = self._perturb_voltages(vx, vy)
        return self._corrupt_powers(self.backend.measure_batch(vx_f, vy_f))

    def measure_grid(self, grid: ProbeGrid) -> np.ndarray:
        """One N-D grid probe through the fault plane.

        Actuator faults rebuild the grid with the *applied* voltages
        (expanded to the full grid shape so every operating point
        draws independently); data faults corrupt the evaluated powers.
        """
        if self._inactive:
            return self.backend.measure_grid(grid)
        self._count_probe()
        self._maybe_raise()
        spec = self.schedule.spec
        if spec.perturbs_voltages:
            shape = grid.shape
            vx = grid.expand("vx") if "vx" in grid else np.zeros(shape)
            vy = grid.expand("vy") if "vy" in grid else np.zeros(shape)
            vx_f, vy_f = self._perturb_voltages(vx, vy, shape=shape)
            others = {axis.name: axis.shaped for axis in grid.axes
                      if axis.name not in ("vx", "vy")}
            grid = ProbeGrid.aligned(**others, vx=vx_f, vy=vy_f)
        powers = self.backend.measure_grid(grid)
        return self._corrupt_powers(powers)


__all__ = ["FaultyBackend"]
