"""Metasurface layer models: quarter-wave plates and birefringent stacks.

The LLAMA rotator (paper Fig. 6) is the cascade

    ``QWP(+45 deg)  .  BFS(Vx, Vy)  .  QWP(-45 deg)``

where the birefringent structure (BFS) applies independent, voltage-
controlled transmission phases to the X and Y field components and the
quarter-wave plates convert that differential phase into a physical
rotation of the polarization plane (paper Eq. 8).

These classes add the non-ideal behaviour the Jones primitives in
:mod:`repro.core.jones` deliberately leave out: substrate-dependent
insertion loss and a small X/Y asymmetry caused by fabrication and
pattern differences (which is why the paper's Table 1 diagonal — equal
Vx and Vy — is not exactly zero rotation).  The frequency-selective
band-pass behaviour of the assembled cascade is handled by
:class:`repro.metasurface.surface.Metasurface`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.jones import JonesMatrix, quarter_wave_plate
from repro.metasurface.materials import SubstrateMaterial, FR4
from repro.metasurface.phase_shifter import (PhaseShifterLayer,
                                             _positive_frequency)


@dataclass(frozen=True)
class QuarterWavePlateLayer:
    """A printed quarter-wave plate layer with realistic loss.

    Attributes
    ----------
    substrate:
        Board material the QWP pattern is printed on.
    thickness_m:
        Layer thickness.
    rotation_deg:
        Physical rotation of the plate's fast axis (+45 or -45 in LLAMA).
    loaded_q:
        Loaded Q of the printed resonant pattern.
    dielectric_fill_factor:
        Fraction of stored energy in the dielectric.
    design_frequency_hz:
        Centre frequency of the printed pattern.
    """

    substrate: SubstrateMaterial = FR4
    thickness_m: float = 0.8e-3
    rotation_deg: float = 45.0
    loaded_q: float = 5.0
    dielectric_fill_factor: float = 0.60
    design_frequency_hz: float = 2.44e9

    def __post_init__(self) -> None:
        if self.thickness_m <= 0:
            raise ValueError("thickness must be positive")
        if self.loaded_q <= 0:
            raise ValueError("loaded Q must be positive")
        if not (0.0 < self.dielectric_fill_factor <= 1.0):
            raise ValueError("dielectric fill factor must be in (0, 1]")
        if self.design_frequency_hz <= 0:
            raise ValueError("design frequency must be positive")
        if self.loaded_q * self.dielectric_fill_factor * self.substrate.loss_tangent >= 1.0:
            raise ValueError(
                "layer is over-lossy: loaded_q * fill * tan_delta must be < 1")

    @property
    def dielectric_insertion_loss_db(self) -> float:
        """Dielectric-dissipation insertion loss (dB)."""
        remaining = 1.0 - (self.loaded_q * self.dielectric_fill_factor *
                           self.substrate.loss_tangent)
        return -20.0 * math.log10(remaining)

    def insertion_loss_db(self, frequency_hz: float) -> float:
        """Total insertion loss of the layer (dB)."""
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        return self.dielectric_insertion_loss_db

    def amplitude_factor(self, frequency_hz: float) -> float:
        """Field amplitude transmission factor."""
        return 10.0 ** (-self.insertion_loss_db(frequency_hz) / 20.0)

    def jones_matrix(self, frequency_hz: float) -> JonesMatrix:
        """Lossy Jones matrix of the rotated QWP at ``frequency_hz``."""
        ideal = quarter_wave_plate(self.rotation_deg)
        return JonesMatrix(ideal.as_array() *
                           self.amplitude_factor(frequency_hz))


@dataclass(frozen=True)
class BirefringentLayer:
    """The tunable birefringent structure: stacked phase-shifter layers.

    The X- and Y-axis patterns are driven by independent bias voltages
    (Vx, Vy).  ``layers_per_axis`` phase-shifter layers act on each axis;
    the paper's optimized design uses two.  The X and Y layer stacks may
    differ slightly (fabrication asymmetry), which produces a small
    residual rotation even when Vx == Vy, as seen on the diagonal of the
    paper's Table 1.
    """

    x_layers: Tuple[PhaseShifterLayer, ...]
    y_layers: Tuple[PhaseShifterLayer, ...]

    def __post_init__(self) -> None:
        if not self.x_layers or not self.y_layers:
            raise ValueError("need at least one phase-shifter layer per axis")
        # Stack constants of diagonal_batch: each axis's distinct layers
        # with their repeat counts and their voltage-independent
        # (dielectric) amplitude, grouped once here rather than hashed
        # on every call.
        object.__setattr__(self, "_axis_groups", tuple(
            tuple((layer, count,
                   10.0 ** (-count * layer.dielectric_insertion_loss_db / 20.0))
                  for layer, count in Counter(layers).items())
            for layers in (self.x_layers, self.y_layers)))

    @staticmethod
    def symmetric(layer: PhaseShifterLayer,
                  layers_per_axis: int = 2,
                  y_axis_inductance_scale: float = 1.0) -> "BirefringentLayer":
        """Build a BFS with identical layers on both axes.

        ``y_axis_inductance_scale`` scales the Y-axis tank inductance to
        model the X/Y pattern asymmetry of the fabricated structure
        (1.0 means perfectly symmetric axes).
        """
        if layers_per_axis < 1:
            raise ValueError("layers_per_axis must be >= 1")
        if y_axis_inductance_scale <= 0:
            raise ValueError("inductance scale must be positive")
        x_layers = tuple(layer for _ in range(layers_per_axis))
        y_layer = layer.with_inductance(layer.inductance_h *
                                        y_axis_inductance_scale)
        y_layers = tuple(y_layer for _ in range(layers_per_axis))
        return BirefringentLayer(x_layers=x_layers, y_layers=y_layers)

    @property
    def layers_per_axis(self) -> int:
        """Number of phase-shifter layers acting on each axis."""
        return len(self.x_layers)

    def axis_phase_rad(self, frequency_hz: float, bias_voltage_v: float,
                       axis: str = "x") -> float:
        """Total transmission phase accumulated along one axis (radians)."""
        if axis not in ("x", "y"):
            raise ValueError("axis must be 'x' or 'y'")
        layers = self.x_layers if axis == "x" else self.y_layers
        return sum(layer.transmission_phase_rad(frequency_hz, bias_voltage_v)
                   for layer in layers)

    def differential_phase_rad(self, frequency_hz: float,
                               vx: float, vy: float) -> float:
        """Paper Eq. 7's ``delta``: X/Y transmission-phase difference."""
        phase_x = self.axis_phase_rad(frequency_hz, vx, "x")
        phase_y = self.axis_phase_rad(frequency_hz, vy, "y")
        return phase_y - phase_x

    def axis_amplitude(self, frequency_hz: float, axis: str = "x",
                       bias_voltage_v: float = None) -> float:
        """Field amplitude factor along one axis (loss only).

        When ``bias_voltage_v`` is given the voltage-dependent detuning
        mismatch loss of each layer is included.
        """
        if axis not in ("x", "y"):
            raise ValueError("axis must be 'x' or 'y'")
        layers = self.x_layers if axis == "x" else self.y_layers
        loss_db = sum(layer.insertion_loss_db(frequency_hz, bias_voltage_v)
                      for layer in layers)
        return 10.0 ** (-loss_db / 20.0)

    def insertion_loss_db(self, frequency_hz: float) -> float:
        """Mean voltage-independent insertion loss across both axes (dB)."""
        amp_x = self.axis_amplitude(frequency_hz, "x")
        amp_y = self.axis_amplitude(frequency_hz, "y")
        mean = 0.5 * (amp_x + amp_y)
        return -20.0 * math.log10(max(mean, 1e-15))

    def jones_matrix(self, frequency_hz: float, vx: float,
                     vy: float) -> JonesMatrix:
        """Lossy Jones matrix ``diag(tx e^{j phi_x}, ty e^{j phi_y})``.

        Scalar view of :meth:`diagonal_batch` (the per-axis phase/loss
        expressions exist once, in the batch path).
        """
        dx, dy = self.diagonal_batch(frequency_hz, vx, vy)
        matrix = np.array([
            [complex(dx), 0.0],
            [0.0, complex(dy)],
        ], dtype=complex)
        return JonesMatrix(matrix)

    def diagonal_batch(self, frequency_hz, vx: np.ndarray,
                       vy: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized diagonal of :meth:`jones_matrix` over voltage arrays.

        Returns the complex ``(dx, dy)`` arrays with
        ``dx = tx e^{j phi_x}`` evaluated element-wise over ``vx`` (and
        likewise for ``vy``), matching the scalar matrix entries.
        ``frequency_hz`` may be a scalar or an array that broadcasts
        against the voltage arrays, so a frequency axis sweeps in the
        same vectorized pass as a bias grid.

        Written out per axis, with ``d = f/fr(V) - fr(V)/f`` the detuning
        of each distinct layer repeated ``n`` times in the stack:
        ``phi = -sum n arctan(k d)`` and
        ``t = prod r^n (1 + (c d)^2)^(-n/2)``, where ``k`` is the loading
        factor, ``c`` the detuning-loss coefficient and ``r`` the
        dielectric amplitude.  The varactor capacitance and the
        resonance are evaluated once per distinct layer per axis (twice
        in all for the symmetric two-layer LLAMA stack); the grouping and
        the ``r^n`` factors are hoisted to construction, and the
        frequency is validated once per call.
        """
        return self._diagonal(_positive_frequency(frequency_hz),
                              np.asarray(vx, dtype=float),
                              np.asarray(vy, dtype=float))

    def _diagonal(self, frequency: np.ndarray, vx: np.ndarray,
                  vy: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`diagonal_batch` on an already validated frequency."""
        x_groups, y_groups = self._axis_groups
        return (_axis_transmission(x_groups, frequency, vx),
                _axis_transmission(y_groups, frequency, vy))

    def phase_difference_range_rad(self, frequency_hz: float,
                                   voltage_low_v: float = 0.0,
                                   voltage_high_v: float = 30.0) -> float:
        """Maximum achievable |delta| over the bias-voltage range."""
        corners = [
            abs(self.differential_phase_rad(frequency_hz, voltage_low_v,
                                            voltage_high_v)),
            abs(self.differential_phase_rad(frequency_hz, voltage_high_v,
                                            voltage_low_v)),
        ]
        return max(corners)


def _axis_transmission(groups, frequency: np.ndarray,
                       voltages: np.ndarray) -> np.ndarray:
    """Complex transmission ``t e^{j phi}`` of one axis's layer stack.

    ``groups`` holds ``(layer, count, dielectric amplitude ** count)``
    per distinct layer: one detuning evaluation serves the phase and the
    mismatch loss of all ``count`` copies.
    """
    phase, amplitude = 0.0, 1.0
    for layer, count, dielectric in groups:
        detuning = layer._detuning(frequency, voltages)
        phase = phase - count * np.arctan(layer.loading_factor * detuning)
        mismatch = 1.0 + (layer.detuning_loss_coefficient * detuning) ** 2
        amplitude = amplitude * dielectric * mismatch ** (-0.5 * count)
    return amplitude * np.exp(1j * phase)


__all__ = ["QuarterWavePlateLayer", "BirefringentLayer"]
