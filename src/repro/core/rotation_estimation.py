"""Polarization-rotation-angle estimation (paper Sec. 3.4, Fig. 12).

The achieved rotation angle depends on the link (distance, incident
power), so LLAMA estimates it from power measurements rather than
assuming the simulated Table 1 values.  The procedure:

1. with the transmitter fixed, rotate the receiver to find the
   orientation ``theta_0`` of maximum power (polarization-aligned);
2. sweep the bias voltages and record the combinations giving the
   minimum (``V_min``) and maximum (``V_max``) received power;
3. at each of those two bias states, rotate the receiver through 180
   degrees again and find the new best orientations ``theta_min`` and
   ``theta_max``; the differences ``|theta_0 - theta_min|`` and
   ``|theta_0 - theta_max|`` are the minimum and maximum rotation angles
   the surface produces on this link.

The estimator talks to the world through the one probe protocol of
:mod:`repro.api.backend`: each orientation scan is a single
``measure_grid`` over a ``rx_orientation`` axis, and the voltage search
of step 2 runs through a view of the backend that pins
``rx_orientation``.  A turntable or recorded trace plugs in through
:class:`repro.api.CallableBackend`, called as
``fn(vx, vy, rx_orientation=angle)``.  Dropped (NaN) probes are never
selected: the orientation scan takes the first maximum with NaN read
as ``-inf``, and the voltage extremes skip NaN samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.channel.grid import ProbeGrid
from repro.core.controller import (
    CentralizedController,
    VoltageSweepConfig,
    first_maximum,
    require_backend,
)

_OWNER = "RotationAngleEstimator"


class _PinnedOrientation:
    """A backend view with the receiver held at one orientation."""

    def __init__(self, backend, orientation_deg: float):
        self._backend = backend
        self._orientation_deg = float(orientation_deg)

    def measure_grid(self, grid: ProbeGrid) -> np.ndarray:
        """Probe ``grid`` with ``rx_orientation`` pinned."""
        return self._backend.measure_grid(ProbeGrid.aligned(
            rx_orientation=self._orientation_deg,
            **{axis.name: axis.shaped for axis in grid.axes}))


@dataclass(frozen=True)
class RotationEstimate:
    """Result of the Sec. 3.4 estimation procedure."""

    reference_orientation_deg: float
    min_rotation_deg: float
    max_rotation_deg: float
    min_power_voltages: Tuple[float, float]
    max_power_voltages: Tuple[float, float]

    @property
    def rotation_span_deg(self) -> float:
        """Width of the achievable rotation range."""
        return self.max_rotation_deg - self.min_rotation_deg


def _orientation_difference_deg(angle_a: float, angle_b: float) -> float:
    """Smallest unsigned difference between two antenna orientations.

    Antenna polarization orientations repeat every 180 degrees.
    """
    difference = abs(angle_a - angle_b) % 180.0
    return min(difference, 180.0 - difference)


class RotationAngleEstimator:
    """Implements the three-step estimation procedure of paper Sec. 3.4."""

    def __init__(self,
                 sweep_config: Optional[VoltageSweepConfig] = None,
                 orientation_step_deg: float = 1.0,
                 reference_voltages: Tuple[float, float] = (0.0, 0.0)):
        if not (math.isfinite(orientation_step_deg) and
                orientation_step_deg > 0):
            raise ValueError("orientation step must be positive and finite, "
                             f"got {orientation_step_deg!r}")
        self.controller = CentralizedController(sweep_config)
        self.orientation_step_deg = orientation_step_deg
        self.reference_voltages = reference_voltages

    # ------------------------------------------------------------------ #
    # Step helpers
    # ------------------------------------------------------------------ #
    def find_best_orientation(self, backend, vx: float, vy: float) -> float:
        """Rotate the receiver through 180 degrees; return the best angle.

        One ``measure_grid`` probe scans every orientation; the first
        maximum wins and a dropped (NaN) probe is never selected.
        """
        require_backend(backend, _OWNER)
        orientations = np.arange(0.0, 180.0, self.orientation_step_deg)
        powers = backend.measure_grid(
            ProbeGrid.aligned(rx_orientation=orientations, vx=vx, vy=vy))
        return float(orientations[first_maximum(powers)])

    def find_extreme_voltages(self, backend, orientation_deg: float,
                              exhaustive: bool = False,
                              step_v: float = 2.0) -> Tuple[Tuple[float, float],
                                                            Tuple[float, float]]:
        """Voltage pairs giving the minimum and maximum power (step 2).

        The controller searches the voltages through a view of the
        backend that pins ``rx_orientation``.  Dropped (NaN) samples are
        left out of the extremes; ``ValueError`` if every probe dropped.
        """
        require_backend(backend, _OWNER)
        result = self.controller.optimize(
            _PinnedOrientation(backend, orientation_deg),
            exhaustive=exhaustive, step_v=step_v)
        samples = sorted((sample for sample in result.samples
                          if not math.isnan(sample.power_dbm)),
                         key=lambda sample: sample.power_dbm)
        if not samples:
            raise ValueError("every voltage probe dropped; no extremes")
        weakest = samples[0]
        strongest = samples[-1]
        return ((weakest.vx, weakest.vy), (strongest.vx, strongest.vy))

    # ------------------------------------------------------------------ #
    # Full procedure
    # ------------------------------------------------------------------ #
    def estimate(self, backend,
                 exhaustive_voltage_sweep: bool = False) -> RotationEstimate:
        """Run steps 1-3 and return the rotation-angle estimate."""
        require_backend(backend, _OWNER)
        ref_vx, ref_vy = self.reference_voltages
        # Step 1: align the receiver with the incoming polarization.
        theta_0 = self.find_best_orientation(backend, ref_vx, ref_vy)
        # Step 2: find the bias pairs giving min and max power.
        v_min, v_max = self.find_extreme_voltages(
            backend, theta_0, exhaustive=exhaustive_voltage_sweep)
        # Step 3: re-align the receiver at each extreme bias pair.
        theta_min = self.find_best_orientation(backend, *v_min)
        theta_max = self.find_best_orientation(backend, *v_max)
        min_rotation = _orientation_difference_deg(theta_0, theta_min)
        max_rotation = _orientation_difference_deg(theta_0, theta_max)
        # The "minimum" bias pair may still rotate more than the
        # "maximum power" pair does; report the smaller/larger values.
        low, high = sorted((min_rotation, max_rotation))
        return RotationEstimate(
            reference_orientation_deg=theta_0,
            min_rotation_deg=low,
            max_rotation_deg=high,
            min_power_voltages=v_min,
            max_power_voltages=v_max,
        )


def power_slope_per_degree(orientations_deg: Sequence[float],
                           powers_linear: Sequence[float]) -> float:
    """Least-squares slope of linear received power vs orientation.

    Paper Fig. 12(a) observes that, before dBm conversion, received power
    falls approximately linearly with the Tx/Rx orientation difference;
    the slope calibrates power changes into rotation degrees at unknown
    distances.
    """
    orientations = np.asarray(orientations_deg, dtype=float)
    powers = np.asarray(powers_linear, dtype=float)
    if orientations.shape != powers.shape or orientations.size < 2:
        raise ValueError("need matching sequences of at least two points")
    slope, _intercept = np.polyfit(orientations, powers, 1)
    return float(slope)


__all__ = [
    "RotationEstimate",
    "RotationAngleEstimator",
    "power_slope_per_degree",
]
