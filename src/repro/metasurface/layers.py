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
from repro.metasurface.phase_shifter import PhaseShifterLayer
from repro.units import positive_frequency


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
        # Stack constants of the Jones batch, laid out ``(constant,
        # varactor, row, axis)``: row ``i`` of an axis is its ``i``-th
        # distinct layer, and each distinct varactor gets its own copy
        # of the rows in which the layers it does not drive (and the
        # padding of an axis with fewer distinct layers) have zero
        # count, so they add exactly nothing.  One ``repeat`` spreads
        # the constants over both axes' points.
        groups = [list(Counter(layers).items())
                  for layers in (self.x_layers, self.y_layers)]
        depth = max(len(group) for group in groups)
        varactors = tuple(dict.fromkeys(layer.varactor for group in groups
                                        for layer, _count in group))

        def row(varactor, layer, count):
            count *= layer.varactor == varactor
            return [2.0 * math.pi * math.sqrt(layer.inductance_h),
                    layer.loading_factor, layer.detuning_loss_coefficient,
                    0.5 * math.log(10.0) * count, -count,
                    -count * math.log(10.0) *
                    layer.dielectric_insertion_loss_db / 20.0]

        object.__setattr__(self, "_varactors", varactors)
        object.__setattr__(self, "_row_constants", np.array(
            [[[row(varactor, *(group[index] if index < len(group)
                               else (group[0][0], 0)))
               for group in groups] for index in range(depth)]
             for varactor in varactors]).transpose(3, 0, 1, 2))

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
        """
        points, shapes = axis_points(positive_frequency(frequency_hz), vx, vy)
        return split_axes(self._diagonal(points, shapes), shapes)

    def _diagonal(self, points: np.ndarray, shapes) -> np.ndarray:
        """Both axes' complex transmission ``t e^{j phi}``, one pass.

        ``points`` and ``shapes`` are the layout of :func:`axis_points`
        (the frequency already validated, the voltages effective
        junction voltages); returns the complex diagonal of every point,
        X points first.  Each distinct layer of an axis is one row of a
        stacked ``(varactors, rows, points)`` pass, with
        ``d = f/fr(V) - fr(V)/f`` its detuning and ``m`` its repeat
        count: an axis's transmission is ``exp`` of the sum over its
        rows of ``m ln r - (m/2) ln(1 + (c d)^2) - j m arctan(k d)``, where
        ``k`` is the loading factor, ``c`` the detuning-loss
        coefficient and ``r`` the dielectric amplitude.  The varactor
        law runs once per distinct varactor (once for every factory
        design) and each further step is one array operation for both
        axes.
        """
        frequency, voltages = points
        split = math.prod(shapes[0])
        (tank, loading, detuning_loss, mismatch_weight, phase_count,
         log_dielectric) = np.repeat(self._row_constants,
                                     (split, voltages.size - split), axis=-1)
        # With fr = 1/(2 pi sqrt(L C)) = 1/(tank sqrt(C)), the detuning
        # f/fr - fr/f is s - 1/s for s = f tank sqrt(C).
        ratio = (frequency * np.sqrt(np.array(
            [varactor.capacitance_f(voltages)
             for varactor in self._varactors])))[:, None, :] * tank
        detuning = ratio - 1.0 / ratio
        # log10 rather than ln: the dB conversions already run its
        # kernel, and a pass that first touches another one pays its
        # code pages in resident memory.
        mismatch = np.log10(1.0 + np.square(detuning_loss * detuning))
        log_transmission = ((log_dielectric - mismatch_weight * mismatch) +
                            1j * (phase_count * np.arctan(loading * detuning)))
        return np.exp(log_transmission.sum(axis=(0, 1)))

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


def axis_points(frequency: np.ndarray, vx, vy):
    """Lay the X and Y operating points of a diagonal pass out flat.

    The X transmission depends on (frequency, Vx) alone and the Y one
    on (frequency, Vy), so each axis is evaluated at its own broadcast
    shape: a product bias grid costs ``n + k`` points, not ``2 n k``.
    Returns ``points``, the ``(2, n)`` rows of frequency and voltage of
    the X points followed by the Y points, and ``shapes``, the two
    broadcast shapes (see :func:`split_axes`).
    """
    shapes = (np.broadcast(frequency, vx).shape,
              np.broadcast(frequency, vy).shape)
    split = math.prod(shapes[0])
    points = np.empty((2, split + math.prod(shapes[1])))
    for row, value in enumerate((frequency, vx)):
        points[row, :split].reshape(shapes[0])[...] = value
    for row, value in enumerate((frequency, vy)):
        points[row, split:].reshape(shapes[1])[...] = value
    return points, shapes


def split_axes(values: np.ndarray, shapes):
    """``(X, Y)`` parts of a flat :func:`axis_points` result, each at its
    axis's broadcast shape."""
    split = math.prod(shapes[0])
    return values[:split].reshape(shapes[0]), values[split:].reshape(shapes[1])


__all__ = ["QuarterWavePlateLayer", "BirefringentLayer"]
