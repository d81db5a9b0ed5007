"""Varactor-loaded phase-shifter layer (paper Sec. 3.2).

Each birefringent-structure (BFS) layer of the LLAMA metasurface carries
metallic patterns loaded by varactor diodes that form an LC tank.  The
reverse bias voltage sets the varactor capacitance, which in turn
detunes the tank and changes the transmission phase of the co-polarized
component passing through the layer.  Two such layers per axis yield
roughly +/-50 degrees of phase control per axis, i.e. up to ~100 degrees
of differential phase ``delta`` between the X and Y axes and therefore
``delta / 2`` of polarization rotation of up to ~50 degrees (paper
Table 1).

The model combines two physically grounded ingredients:

1. *Resonant phase response*: the transmission phase of a shunt LC tank
   on a transmission line follows ``-arctan(k (f/fr - fr/f))`` where
   ``fr = 1 / (2 pi sqrt(L C))`` and ``k`` captures how strongly the tank
   loads the line (the "loading factor").
2. *Dielectric insertion loss*: a resonator with loaded quality factor
   ``Q_L`` built on a substrate with dielectric quality factor
   ``Q_U = 1 / (fill * tan_delta)`` dissipates
   ``IL = -20 log10(1 - Q_L / Q_U)`` dB.  Simplified patterns (lower Q)
   and thinner layers (lower fill factor) reduce this loss — exactly the
   optimization the paper performs when porting the design from Rogers
   5880 to FR4.

The band-pass frequency selectivity of the *assembled* structure is a
property of the full cascade and therefore lives in
:class:`repro.metasurface.surface.Metasurface`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.metasurface.materials import SubstrateMaterial, FR4
from repro.metasurface.varactor import VaractorDiode, SMV1233
from repro.units import positive_frequency


@dataclass(frozen=True)
class PhaseShifterLayer:
    """One varactor-tuned phase-shifter (BFS) layer.

    Attributes
    ----------
    substrate:
        Dielectric the copper pattern is printed on.
    thickness_m:
        Physical layer thickness (drives the dielectric fill factor).
    varactor:
        Tuning diode model.
    inductance_h:
        Equivalent loop/patch inductance of the LC tank.
    loading_factor:
        Dimensionless strength of the tank's phase loading of the line.
    loaded_q:
        Loaded quality factor of the resonant copper pattern.
    dielectric_fill_factor:
        Fraction of stored EM energy residing in the lossy dielectric.
    design_frequency_hz:
        Centre frequency the copper geometry is tuned for.
    detuning_loss_coefficient:
        Strength of the extra mismatch loss incurred when the varactor
        detunes the tank away from the operating frequency.  This is why
        the paper's Fig. 11 efficiency curves differ across bias
        voltages: each bias point re-tunes the structure slightly.
    """

    substrate: SubstrateMaterial = FR4
    thickness_m: float = 0.8e-3
    varactor: VaractorDiode = SMV1233
    inductance_h: float = 3.3e-9
    loading_factor: float = 0.88
    loaded_q: float = 5.5
    dielectric_fill_factor: float = 0.65
    design_frequency_hz: float = 2.44e9
    detuning_loss_coefficient: float = 0.9

    def __post_init__(self) -> None:
        if self.thickness_m <= 0:
            raise ValueError("thickness must be positive")
        if self.inductance_h <= 0:
            raise ValueError("inductance must be positive")
        if self.loading_factor <= 0:
            raise ValueError("loading factor must be positive")
        if self.loaded_q <= 0:
            raise ValueError("loaded Q must be positive")
        if not (0.0 < self.dielectric_fill_factor <= 1.0):
            raise ValueError("dielectric fill factor must be in (0, 1]")
        if self.design_frequency_hz <= 0:
            raise ValueError("design frequency must be positive")
        if self.detuning_loss_coefficient < 0:
            raise ValueError("detuning loss coefficient must be non-negative")
        # A layer whose dielectric loss exceeds its stored energy budget is
        # not physical: the insertion-loss formula would go negative.
        if self.loaded_q * self.dielectric_fill_factor * self.substrate.loss_tangent >= 1.0:
            raise ValueError(
                "layer is over-lossy: loaded_q * fill * tan_delta must be < 1")

    # ------------------------------------------------------------------ #
    # Resonance and phase
    # ------------------------------------------------------------------ #
    def resonant_frequency_hz(self, bias_voltage_v: float) -> float:
        """LC tank resonant frequency at the given reverse bias voltage.

        Scalar view of :meth:`resonant_frequencies_hz_batch`.
        """
        return float(self.resonant_frequencies_hz_batch(bias_voltage_v))

    def transmission_phase_rad(self, frequency_hz: float,
                               bias_voltage_v: float) -> float:
        """Transmission phase of the co-polarized component (radians).

        Scalar view of :meth:`transmission_phase_rad_batch`.
        """
        return float(self.transmission_phase_rad_batch(frequency_hz,
                                                       bias_voltage_v))

    def resonant_frequencies_hz_batch(self,
                                      bias_voltages_v: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`resonant_frequency_hz` over a voltage array."""
        capacitance = self.varactor.capacitance_f(
            np.asarray(bias_voltages_v, dtype=float))
        return 1.0 / (2.0 * math.pi * np.sqrt(self.inductance_h * capacitance))

    def _detuning(self, frequency: np.ndarray,
                  bias_voltages_v: np.ndarray) -> np.ndarray:
        """Normalised tank detuning ``f/fr - fr/f`` that both the phase
        response and the mismatch loss are built on.

        ``frequency`` must already be a validated positive array (see
        :func:`repro.units.positive_frequency`); callers evaluating
        several quantities of one layer validate it once.
        """
        resonant = self.resonant_frequencies_hz_batch(bias_voltages_v)
        return frequency / resonant - resonant / frequency

    def transmission_phase_rad_batch(self, frequency_hz,
                                     bias_voltages_v: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`transmission_phase_rad` over voltage arrays.

        ``frequency_hz`` may be a scalar or an array broadcastable
        against ``bias_voltages_v``, so whole frequency sweeps evaluate
        in the same pass as bias grids.
        """
        detuning = self._detuning(positive_frequency(frequency_hz),
                                  bias_voltages_v)
        return -np.arctan(self.loading_factor * detuning)

    def transmission_phase_deg(self, frequency_hz: float,
                               bias_voltage_v: float) -> float:
        """Transmission phase in degrees."""
        return math.degrees(self.transmission_phase_rad(frequency_hz,
                                                        bias_voltage_v))

    def phase_tuning_range_deg(self, frequency_hz: float,
                               voltage_low_v: float = 0.0,
                               voltage_high_v: float = 30.0) -> float:
        """Total phase swing achievable across a bias-voltage range."""
        low = self.transmission_phase_deg(frequency_hz, voltage_low_v)
        high = self.transmission_phase_deg(frequency_hz, voltage_high_v)
        return abs(high - low)

    # ------------------------------------------------------------------ #
    # Loss
    # ------------------------------------------------------------------ #
    @property
    def dielectric_insertion_loss_db(self) -> float:
        """Insertion loss caused by dielectric dissipation (dB)."""
        unloaded_q_inverse = (self.dielectric_fill_factor *
                              self.substrate.loss_tangent)
        remaining = 1.0 - self.loaded_q * unloaded_q_inverse
        return -20.0 * math.log10(remaining)

    def detuning_loss_db_batch(self, frequency_hz,
                               bias_voltages_v: np.ndarray) -> np.ndarray:
        """Mismatch loss from the varactor detuning the tank (dB).

        When the bias voltage pulls the tank resonance away from the
        operating frequency, part of the incident energy is reflected
        rather than transmitted; the loss grows with the normalised
        detuning the phase response is built on.  ``frequency_hz`` may
        be a scalar or an array broadcastable against
        ``bias_voltages_v``.
        """
        detuning = self._detuning(positive_frequency(frequency_hz),
                                  bias_voltages_v)
        return 10.0 * np.log10(
            1.0 + (self.detuning_loss_coefficient * detuning) ** 2)

    def detuning_loss_db(self, frequency_hz: float,
                         bias_voltage_v: float) -> float:
        """Scalar view of :meth:`detuning_loss_db_batch`."""
        return float(self.detuning_loss_db_batch(frequency_hz,
                                                 bias_voltage_v))

    def insertion_loss_db(self, frequency_hz: float,
                          bias_voltage_v: float = None) -> float:
        """Layer insertion loss at ``frequency_hz`` (dB).

        Dielectric dissipation dominates and is voltage-independent; when
        a bias voltage is supplied the detuning mismatch loss is added,
        which is what separates the paper's Fig. 11 curves.  The
        structure-level band-pass selectivity is applied by the
        :class:`Metasurface`.
        """
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        loss = self.dielectric_insertion_loss_db
        if bias_voltage_v is not None:
            loss += self.detuning_loss_db(frequency_hz, bias_voltage_v)
        return loss

    # ------------------------------------------------------------------ #
    # Complex transmission coefficient
    # ------------------------------------------------------------------ #
    def s21(self, frequency_hz: float, bias_voltage_v: float) -> complex:
        """Complex co-polarized transmission coefficient of the layer."""
        amplitude = 10.0 ** (
            -self.insertion_loss_db(frequency_hz, bias_voltage_v) / 20.0)
        phase = self.transmission_phase_rad(frequency_hz, bias_voltage_v)
        return amplitude * complex(math.cos(phase), math.sin(phase))

    def with_substrate(self, substrate: SubstrateMaterial) -> "PhaseShifterLayer":
        """Return a copy of this layer built on a different substrate."""
        return replace(self, substrate=substrate)

    def with_inductance(self, inductance_h: float) -> "PhaseShifterLayer":
        """Return a copy of this layer with a different tank inductance."""
        return replace(self, inductance_h=inductance_h)


__all__ = ["PhaseShifterLayer"]
