"""The assembled programmable metasurface (paper Secs. 3.2 and 4).

A :class:`Metasurface` stacks two quarter-wave-plate layers around a
tunable birefringent structure and exposes the quantities the paper
evaluates:

* complex Jones response (transmissive or reflective) as a function of
  frequency and the two bias voltages,
* transmission efficiency per paper Eq. 11 (Figs. 8-11),
* realized polarization rotation angle (Table 1, Fig. 15h),
* physical/cost metadata of the fabricated lattice (Sec. 4).

Per-layer objects model the voltage-controlled phase and the dielectric
dissipation; the *frequency selectivity* of the assembled cascade (the
band-pass shape of Figs. 8-11) is a property of the matched stack as a
whole, so it is applied here as a structure-level response with a small
detuning between the X and Y axes (the reason the paper's x- and
y-excitation curves differ slightly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from repro.constants import (
    BIAS_VOLTAGE_MAX_V,
    BIAS_VOLTAGE_MIN_V,
    DEFAULT_CENTER_FREQUENCY_HZ,
    METASURFACE_LEAKAGE_CURRENT_A,
    PROTOTYPE_SIDE_M,
    PROTOTYPE_UNIT_COUNT,
)
from repro.core.jones import JonesMatrix, JonesVector
from repro.metasurface.layers import (BirefringentLayer, QuarterWavePlateLayer,
                                      axis_points, split_axes)
from repro.units import positive_frequency


class SurfaceMode(Enum):
    """Deployment mode of the metasurface (paper Fig. 14)."""

    TRANSMISSIVE = "transmissive"
    REFLECTIVE = "reflective"


@dataclass(frozen=True)
class SurfaceResponse:
    """The metasurface's response to one (frequency, Vx, Vy) operating point.

    Attributes
    ----------
    jones:
        Complex 2x2 Jones matrix applied to the incident field.
    rotation_angle_deg:
        Equivalent polarization rotation produced by the surface.
    efficiency_x, efficiency_y:
        Power transmission efficiency (Eq. 11) for x-/y-polarized
        excitation, linear scale in [0, 1].
    """

    jones: JonesMatrix
    rotation_angle_deg: float
    efficiency_x: float
    efficiency_y: float

    @property
    def efficiency_x_db(self) -> float:
        """x-excitation efficiency in dB."""
        return 10.0 * math.log10(max(self.efficiency_x, 1e-20))

    @property
    def efficiency_y_db(self) -> float:
        """y-excitation efficiency in dB."""
        return 10.0 * math.log10(max(self.efficiency_y, 1e-20))


@dataclass(frozen=True)
class Metasurface:
    """A programmable polarization-rotating metasurface.

    Attributes
    ----------
    front_qwp, back_qwp:
        Quarter-wave-plate layers at +45 and -45 degrees.
    birefringent:
        The voltage-tunable BFS stack.
    name:
        Design name for reporting.
    design_frequency_hz:
        Centre frequency of the assembled structure's pass band.
    selectivity_q:
        Effective quality factor of the structure-level band-pass
        response; sets how quickly efficiency rolls off away from the
        design frequency.
    filter_order:
        Order of the band-pass roll-off (1 gives the gentle skirts seen
        in the paper's HFSS sweeps).
    axis_detuning_hz:
        Offset between the X- and Y-axis pass-band centres caused by the
        asymmetric copper patterns.
    side_length_m:
        Physical side length of the square lattice.
    unit_count:
        Number of functional units in the lattice.
    reflective_backplane_efficiency:
        Power reflectivity of the metallic backplane used in reflective
        mode (close to 1 for copper).
    reflective_conversion_fraction:
        Fraction of the reflected energy that traverses the functional
        (anisotropic) part of the aperture twice and therefore undergoes
        polarization conversion; the remainder reflects specularly with
        its polarization unchanged (unit-cell borders, bias lines,
        frame).  A reciprocal rotator largely cancels its own rotation on
        the return pass, which is why the paper observes much smaller
        voltage sensitivity in reflection (Fig. 21); the double pass
        through the +/-45 degree QWPs still converts part of the wave
        into the orthogonal polarization, which is what produces the
        reflective power gain of Fig. 22.
    bias_derating:
        ``None`` for the idealised (HFSS-style) structure whose terminal
        voltages directly set the varactor junction voltage — this is
        what the paper's Table 1 and Figs. 8-11 simulate over 2-15 V.
        For the fabricated prototype the paper reports that "the
        effective reverse bias voltage ... may need to be as high as
        30 V ... due to the fabrication and assembly errors" (Sec. 3.3),
        i.e. the full 0-30 V terminal sweep only realises the designed
        2-15 V junction range.  Setting ``bias_derating=(2.0, 15.0)``
        applies that affine mapping, which is why the over-the-air
        rotation stays within 3-45 degrees even though the supply sweeps
        0-30 V.
    leakage_current_a:
        DC bias leakage current (paper: 15 nA).
    """

    front_qwp: QuarterWavePlateLayer
    back_qwp: QuarterWavePlateLayer
    birefringent: BirefringentLayer
    name: str = "LLAMA metasurface"
    design_frequency_hz: float = DEFAULT_CENTER_FREQUENCY_HZ
    selectivity_q: float = 12.0
    filter_order: int = 1
    axis_detuning_hz: float = 15e6
    side_length_m: float = PROTOTYPE_SIDE_M
    unit_count: int = PROTOTYPE_UNIT_COUNT
    reflective_backplane_efficiency: float = 0.95
    reflective_conversion_fraction: float = 0.7
    bias_derating: Optional[Tuple[float, float]] = None
    leakage_current_a: float = METASURFACE_LEAKAGE_CURRENT_A

    def __post_init__(self) -> None:
        if self.design_frequency_hz <= 0:
            raise ValueError("design frequency must be positive")
        if self.selectivity_q <= 0:
            raise ValueError("selectivity Q must be positive")
        if self.filter_order < 1:
            raise ValueError("filter order must be at least 1")
        if self.side_length_m <= 0:
            raise ValueError("side length must be positive")
        if self.unit_count < 1:
            raise ValueError("unit count must be at least 1")
        if not (0.0 < self.reflective_backplane_efficiency <= 1.0):
            raise ValueError("backplane efficiency must be in (0, 1]")
        if not (0.0 <= self.reflective_conversion_fraction <= 1.0):
            raise ValueError("conversion fraction must be in [0, 1]")
        if not abs(self.axis_detuning_hz) < self.design_frequency_hz:
            # Also rejects NaN/inf; a detuning at or past the design
            # frequency puts one axis's pass-band centre at or below 0 Hz.
            raise ValueError(
                "axis detuning must be finite and smaller in magnitude "
                "than the design frequency")
        if self.bias_derating is not None:
            low, high = self.bias_derating
            if not (0.0 <= low < high <= BIAS_VOLTAGE_MAX_V):
                raise ValueError("bias derating must satisfy 0 <= low < high <= 30")
        # Stack constants of jones_matrix_batch.  The QWP layers' loss
        # model is frequency-flat (dielectric dissipation only), so the
        # cascade Q(+45) diag(dx, dy) Q(-45) splits into two fixed
        # outer products, T_x = front[:, 0] (x) back[0, :] and
        # T_y = front[:, 1] (x) back[1, :], weighting dx and dy.
        front = self.front_qwp.jones_matrix(self.design_frequency_hz).as_array()
        back = self.back_qwp.jones_matrix(self.design_frequency_hz).as_array()
        object.__setattr__(self, "_cascade_terms", np.stack(
            [np.outer(front[:, 0], back[0, :]),
             np.outer(front[:, 1], back[1, :])]))
        object.__setattr__(self, "_pass_band_centers", np.array(
            [self.design_frequency_hz - self.axis_detuning_hz,
             self.design_frequency_hz + self.axis_detuning_hz]))
        # The cascade weights of the last scalar frequency probed: a link
        # probes one carrier pass after pass.
        object.__setattr__(self, "_scalar_weights", {})

    # ------------------------------------------------------------------ #
    # Validation helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate_voltages(vx: float, vy: float) -> None:
        for name, value in (("Vx", vx), ("Vy", vy)):
            if not (BIAS_VOLTAGE_MIN_V <= value <= BIAS_VOLTAGE_MAX_V):
                raise ValueError(
                    f"{name}={value} V outside the supported bias range "
                    f"[{BIAS_VOLTAGE_MIN_V}, {BIAS_VOLTAGE_MAX_V}] V")

    @staticmethod
    def _validate_axis_voltages(voltages: np.ndarray, split: int) -> None:
        """Validate the flat voltages of an :func:`axis_points` layout,
        the Vx points the first ``split``."""
        # NaN fails both comparisons, so it is rejected here just like
        # the scalar _validate_voltages path rejects it.
        inside = ((voltages >= BIAS_VOLTAGE_MIN_V) &
                  (voltages <= BIAS_VOLTAGE_MAX_V))
        if not inside.all():
            raise ValueError(
                f"{'Vx' if not inside[:split].all() else 'Vy'} contains "
                f"voltages outside the supported bias range "
                f"[{BIAS_VOLTAGE_MIN_V}, {BIAS_VOLTAGE_MAX_V}] V")

    def _effective_voltages(self, voltages):
        """Map terminal bias voltages to effective junction voltages.

        Identity for the idealised structure; the prototype derating maps
        the 0-30 V terminal range onto the designed junction range.
        ``voltages`` is a scalar or an array of either axis's voltages.
        """
        if self.bias_derating is None:
            return voltages
        low, high = self.bias_derating
        span = BIAS_VOLTAGE_MAX_V - BIAS_VOLTAGE_MIN_V
        scale = (high - low) / span
        return low + (voltages - BIAS_VOLTAGE_MIN_V) * scale

    # ------------------------------------------------------------------ #
    # Structure-level band-pass response
    # ------------------------------------------------------------------ #
    def bandpass_loss_db(self, frequency_hz, axis: str = "x"):
        """Band-pass roll-off of the assembled structure for one axis (dB).

        ``frequency_hz`` may be a scalar (returns a float) or a NumPy
        array (returns the element-wise roll-off with the same shape).
        """
        frequency = positive_frequency(frequency_hz)
        if axis not in ("x", "y"):
            raise ValueError("axis must be 'x' or 'y'")
        value = 10.0 * np.log10(self._bandpass_excess(frequency)[
            ..., "xy".index(axis)])
        if np.isscalar(frequency_hz):
            return float(value)
        return value

    def _bandpass_excess(self, frequency: np.ndarray) -> np.ndarray:
        """Band-pass power loss factor ``1 + x^(2 order)`` of both axes,
        ``(..., 2)``, ``x`` the normalised offset from each axis's
        pass-band centre, on an already validated frequency."""
        centers = self._pass_band_centers
        normalized = (2.0 * self.selectivity_q * (frequency[..., None] -
                                                  centers) / centers)
        return 1.0 + normalized ** (2 * self.filter_order)

    def _cascade_weights(self, frequency: np.ndarray) -> np.ndarray:
        """The cascade's ``(..., 2, 2, 2)`` weights ``(W_x, W_y)``.

        ``W_a[i, j] = T_a[i, j] c_j``: the QWP outer product of BFS axis
        ``a`` with ``c_j``, the band-pass field amplitude of input axis
        ``j``, folded in, so ``J = dx W_x + dy W_y``.  They depend on the
        (validated) frequency alone, so the last scalar frequency's
        weights are kept for the next call.
        """
        key = float(frequency) if frequency.ndim == 0 else None
        weights = self._scalar_weights.get(key)
        if weights is None:
            amplitudes = self._bandpass_excess(frequency) ** -0.5
            weights = self._cascade_terms * amplitudes[..., None, None, :]
            if key is not None:
                self._scalar_weights.clear()
                self._scalar_weights[key] = weights
        return weights

    # ------------------------------------------------------------------ #
    # Transmissive response
    # ------------------------------------------------------------------ #
    def jones_matrix(self, frequency_hz: float, vx: float,
                     vy: float) -> JonesMatrix:
        """Transmissive Jones matrix ``Q(+45) B(Vx, Vy) Q(-45)`` with loss.

        The structure-level band-pass response is applied per incident
        field axis, so the matrix is consistent with
        :meth:`transmission_efficiency` at every frequency.  Scalar view
        of :meth:`jones_matrix_batch` (the cascade exists once, in the
        batch path).
        """
        self._validate_voltages(vx, vy)
        return JonesMatrix(self.jones_matrix_batch(frequency_hz, vx, vy))

    def jones_matrix_batch(self, frequency_hz, vx: np.ndarray,
                           vy: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`jones_matrix` over bias-voltage arrays.

        ``vx``, ``vy`` and ``frequency_hz`` must broadcast against each
        other (frequency may be a scalar, or e.g. an ``(n, 1)`` column
        sweeping the carrier alongside an ``(n, k)`` bias grid); the
        result is a complex ``(..., 2, 2)`` array whose trailing
        matrices equal the scalar :meth:`jones_matrix` at each
        (frequency, voltage) operating point.

        The cascade is written out as ``J = dx W_x + dy W_y``: ``(dx,
        dy)`` is the BFS diagonal, evaluated for both axes in one
        stacked pass (:meth:`BirefringentLayer._diagonal`) with the
        voltages validated once, and ``W_x``, ``W_y`` the ``(2, 2)``
        weights of :meth:`_cascade_weights`, the QWP outer products
        hoisted to construction (the QWP matrices are
        frequency-independent) with the band-pass field amplitude of
        each input axis folded in.
        """
        frequency = positive_frequency(frequency_hz)
        points, shapes = axis_points(frequency, vx, vy)
        self._validate_axis_voltages(points[1], math.prod(shapes[0]))
        points[1] = self._effective_voltages(points[1])
        dx, dy = split_axes(self.birefringent._diagonal(points, shapes),
                            shapes)
        weights = self._cascade_weights(frequency)
        return (dx[..., None, None] * weights[..., 0, :, :] +
                dy[..., None, None] * weights[..., 1, :, :])

    def rotation_angle_deg(self, frequency_hz: float, vx: float,
                           vy: float) -> float:
        """Polarization rotation produced in transmissive mode (degrees).

        Equals half the differential phase of the BFS (paper Eq. 8); the
        sign convention is such that the magnitude matches Table 1.
        """
        self._validate_voltages(vx, vy)
        delta = self.birefringent.differential_phase_rad(
            frequency_hz, self._effective_voltages(vx),
            self._effective_voltages(vy))
        return math.degrees(delta) / 2.0

    def transmission_efficiency(self, frequency_hz, vx: float, vy: float,
                                excitation: str = "x"):
        """Power transmission efficiency for a linearly polarized excitation.

        Implements paper Eq. 11: the sum of co- and cross-polarized
        transmitted power fractions for a unit-power incident wave.
        ``frequency_hz`` may be a scalar (returns a float) or a NumPy
        array (returns the element-wise efficiency with the same shape,
        one point per frequency); either way the sweep is one
        :meth:`jones_matrix_batch` call (see :meth:`_efficiencies`).
        """
        return _per_frequency(frequency_hz, self._efficiencies(
            self.jones_matrix_batch, frequency_hz, vx, vy, excitation))

    def transmission_efficiency_db(self, frequency_hz, vx: float, vy: float,
                                   excitation: str = "x"):
        """Transmission efficiency in dB (paper Figs. 8-11 y-axis).

        Takes a scalar or array ``frequency_hz`` like
        :meth:`transmission_efficiency`, so a whole efficiency curve is
        one Jones batch.
        """
        efficiencies = self._efficiencies(self.jones_matrix_batch,
                                          frequency_hz, vx, vy, excitation)
        return _per_frequency(frequency_hz, [
            10.0 * math.log10(max(efficiency, 1e-20))
            for efficiency in efficiencies])

    def _efficiencies(self, jones_batch, frequency_hz, vx: float, vy: float,
                      excitation: str) -> List[float]:
        """Eq. 11 efficiency of ``jones_batch`` at every frequency, flat.

        The voltages are validated like the scalar :meth:`jones_matrix`
        (same ``ValueError``), the Jones matrices of the whole frequency
        array come from one ``jones_batch`` call, and the incident field
        is applied to all of them at once.  The power sum stays the
        per-point :attr:`JonesVector.intensity` arithmetic, so an array
        call equals the loop of scalar calls exactly.
        """
        if excitation not in ("x", "y"):
            raise ValueError("excitation must be 'x' or 'y'")
        self._validate_voltages(vx, vy)
        # Not (1, 0) / (0, 1): the y excitation is linear(90 deg), whose
        # x component is cos(pi / 2) = 6.1e-17.
        incident = (JonesVector.horizontal() if excitation == "x"
                    else JonesVector.vertical())
        fields = jones_batch(frequency_hz, vx, vy) @ incident.as_array()
        return [min(1.0, JonesVector(*field).intensity)
                for field in fields.reshape(-1, 2).tolist()]

    # ------------------------------------------------------------------ #
    # Reflective response
    # ------------------------------------------------------------------ #
    def reflection_jones_matrix(self, frequency_hz: float, vx: float,
                                vy: float) -> JonesMatrix:
        """Jones matrix for reflective operation.

        The wave traverses the stack, reflects off the metallic backplane
        and traverses the stack again.  The return pass through a
        reciprocal stack is described by the transpose of the forward
        Jones matrix, and the backplane is modelled as an ideal mirror
        ``diag(1, -1)``.  Only ``reflective_conversion_fraction`` of the
        aperture participates in this anisotropic double traversal; the
        remainder reflects specularly with its polarization unchanged.
        Scalar view of :meth:`reflection_jones_matrix_batch`.
        """
        self._validate_voltages(vx, vy)
        return JonesMatrix(
            self.reflection_jones_matrix_batch(frequency_hz, vx, vy))

    def reflection_jones_matrix_batch(self, frequency_hz,
                                      vx: np.ndarray,
                                      vy: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`reflection_jones_matrix` over voltage arrays.

        Accepts the same broadcastable frequency/voltage arrays as
        :meth:`jones_matrix_batch`; returns a complex ``(..., 2, 2)``
        array whose trailing matrices equal the scalar reflective Jones
        matrix at each operating point.

        Written out from the one-way matrix ``J``:
        ``R = f a (J^T diag(1, -1) J) + (1 - f) a I`` with ``f`` the
        conversion fraction and ``a`` the backplane field amplitude, so
        ``R[i, j] = f a (J[0, i] J[0, j] - J[1, i] J[1, j])`` plus the
        specular ``(1 - f) a`` on the diagonal.  ``R`` is symmetric
        (reciprocity); the off-diagonal entry is computed once.
        """
        one_way = self.jones_matrix_batch(frequency_hz, vx, vy)
        j00, j01 = one_way[..., 0, 0], one_way[..., 0, 1]
        j10, j11 = one_way[..., 1, 0], one_way[..., 1, 1]
        backplane_amplitude = math.sqrt(self.reflective_backplane_efficiency)
        fraction = self.reflective_conversion_fraction
        converted = fraction * backplane_amplitude
        specular = (1.0 - fraction) * backplane_amplitude
        reflected = np.empty_like(one_way)
        reflected[..., 0, 0] = converted * (j00 * j00 - j10 * j10) + specular
        reflected[..., 1, 1] = converted * (j01 * j01 - j11 * j11) + specular
        reflected[..., 0, 1] = converted * (j00 * j01 - j10 * j11)
        reflected[..., 1, 0] = reflected[..., 0, 1]
        return reflected

    def reflection_efficiency(self, frequency_hz, vx: float, vy: float,
                              excitation: str = "x"):
        """Power reflection efficiency for a linearly polarized excitation
        (scalar or array ``frequency_hz``, like
        :meth:`transmission_efficiency`)."""
        return _per_frequency(frequency_hz, self._efficiencies(
            self.reflection_jones_matrix_batch, frequency_hz, vx, vy,
            excitation))

    # ------------------------------------------------------------------ #
    # Mode dispatch and bookkeeping
    # ------------------------------------------------------------------ #
    def response(self, frequency_hz: float, vx: float, vy: float,
                 mode: SurfaceMode = SurfaceMode.TRANSMISSIVE) -> SurfaceResponse:
        """Full response record at one operating point."""
        if mode is SurfaceMode.TRANSMISSIVE:
            jones = self.jones_matrix(frequency_hz, vx, vy)
            rotation = self.rotation_angle_deg(frequency_hz, vx, vy)
            eff_x = self.transmission_efficiency(frequency_hz, vx, vy, "x")
            eff_y = self.transmission_efficiency(frequency_hz, vx, vy, "y")
        else:
            jones = self.reflection_jones_matrix(frequency_hz, vx, vy)
            # In reflection the relevant quantity is the polarization
            # conversion angle of the round trip, which for the ideal
            # rotator equals twice the one-way rotation scaled by the
            # functional-aperture fraction.
            rotation = (self.reflective_conversion_fraction * 2.0 *
                        self.rotation_angle_deg(frequency_hz, vx, vy))
            eff_x = self.reflection_efficiency(frequency_hz, vx, vy, "x")
            eff_y = self.reflection_efficiency(frequency_hz, vx, vy, "y")
        return SurfaceResponse(jones=jones, rotation_angle_deg=rotation,
                               efficiency_x=eff_x, efficiency_y=eff_y)

    def rotation_range_deg(self, frequency_hz: float,
                           voltage_low_v: float = 2.0,
                           voltage_high_v: float = 15.0) -> Tuple[float, float]:
        """(min, max) |rotation| over the corner points of the voltage range.

        The paper reports 1.9-48.7 degrees over the 2-15 V range
        (Table 1) and 3-45 degrees measured over the air (Sec. 5.1.1).
        """
        corners = [
            (voltage_low_v, voltage_low_v),
            (voltage_low_v, voltage_high_v),
            (voltage_high_v, voltage_low_v),
            (voltage_high_v, voltage_high_v),
        ]
        magnitudes = [abs(self.rotation_angle_deg(frequency_hz, vx, vy))
                      for vx, vy in corners]
        return (min(magnitudes), max(magnitudes))

    @property
    def area_m2(self) -> float:
        """Aperture area of the lattice in square metres."""
        return self.side_length_m ** 2

    def standby_power_w(self, bias_voltage_v: float = BIAS_VOLTAGE_MAX_V) -> float:
        """DC power drawn by the bias network (paper: ~15 nA leakage)."""
        if bias_voltage_v < 0:
            raise ValueError("bias voltage must be non-negative")
        return self.leakage_current_a * bias_voltage_v


def _per_frequency(frequency_hz, values: List[float]):
    """Flat per-point ``values`` in the shape of ``frequency_hz``: a float
    for a scalar frequency, else an array of the frequency's shape."""
    if np.isscalar(frequency_hz):
        return values[0]
    return np.array(values).reshape(np.shape(frequency_hz))


__all__ = ["Metasurface", "SurfaceMode", "SurfaceResponse"]
