"""Varactor diode model (paper Sec. 3.2 and 4).

LLAMA tunes its birefringent phase-shifter layers with SMV1233 varactor
diodes: the reverse bias voltage sets the junction capacitance, which in
turn detunes an LC-loaded transmission-line section and changes its
transmission phase.  The paper quotes lumped capacitances from 0.84 pF to
2.41 pF for reverse bias voltages of 15 V down to 2 V.

We model the standard abrupt/graded-junction capacitance law

    ``C(V) = Cj0 / (1 + V / Vj)^M + Cp``

with parameters fitted so that C(2 V) = 2.41 pF and C(15 V) = 0.84 pF,
matching the paper's quoted tuning range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class VaractorDiode:
    """A junction varactor with the classic C(V) law.

    Attributes
    ----------
    name:
        Part name for reporting.
    junction_capacitance_f:
        Zero-bias junction capacitance ``Cj0`` in Farads.
    junction_potential_v:
        Built-in junction potential ``Vj`` in Volts.
    grading_coefficient:
        Exponent ``M`` of the capacitance law.
    package_capacitance_f:
        Fixed parasitic package capacitance ``Cp`` in Farads.
    max_reverse_voltage_v:
        Absolute maximum reverse bias; inputs are validated against it.
    unit_cost_usd:
        Per-diode cost used by the design cost model (paper: ~50 cents).
    """

    name: str
    junction_capacitance_f: float
    junction_potential_v: float
    grading_coefficient: float
    package_capacitance_f: float = 0.0
    max_reverse_voltage_v: float = 30.0
    unit_cost_usd: float = 0.5

    def __post_init__(self) -> None:
        if self.junction_capacitance_f <= 0:
            raise ValueError("junction capacitance must be positive")
        if self.junction_potential_v <= 0:
            raise ValueError("junction potential must be positive")
        if self.grading_coefficient <= 0:
            raise ValueError("grading coefficient must be positive")
        if self.package_capacitance_f < 0:
            raise ValueError("package capacitance must be non-negative")
        if self.max_reverse_voltage_v <= 0:
            raise ValueError("max reverse voltage must be positive")

    def capacitance_f(self, reverse_voltage_v: ArrayLike) -> ArrayLike:
        """Junction capacitance (Farads) at a reverse bias voltage.

        Voltages are clipped to ``[0, max_reverse_voltage_v]``: the paper's
        controller sweeps 0-30 V and the physical diode simply saturates
        at its minimum capacitance near the top of that range.
        """
        voltage = np.minimum(np.maximum(reverse_voltage_v, 0.0),
                             self.max_reverse_voltage_v)
        capacitance = (self.junction_capacitance_f /
                       np.power(1.0 + voltage / self.junction_potential_v,
                                self.grading_coefficient) +
                       self.package_capacitance_f)
        if np.isscalar(reverse_voltage_v):
            return float(capacitance)
        return capacitance

    def capacitance_pf(self, reverse_voltage_v: ArrayLike) -> ArrayLike:
        """Junction capacitance in picofarads."""
        return self.capacitance_f(reverse_voltage_v) * 1e12

    def voltage_for_capacitance(self, capacitance_f: float) -> float:
        """Invert the C(V) law: bias voltage that yields ``capacitance_f``.

        Raises
        ------
        ValueError
            If the requested capacitance is outside the achievable range.
        """
        c_min = self.capacitance_f(self.max_reverse_voltage_v)
        c_max = self.capacitance_f(0.0)
        if not (c_min <= capacitance_f <= c_max):
            raise ValueError(
                f"capacitance {capacitance_f * 1e12:.3f} pF outside the "
                f"achievable range [{c_min * 1e12:.3f}, {c_max * 1e12:.3f}] pF")
        junction = capacitance_f - self.package_capacitance_f
        if junction <= 0:
            raise ValueError("requested capacitance below package parasitic")
        ratio = self.junction_capacitance_f / junction
        voltage = self.junction_potential_v * (
            ratio ** (1.0 / self.grading_coefficient) - 1.0)
        return float(np.clip(voltage, 0.0, self.max_reverse_voltage_v))

    @property
    def tuning_range_pf(self) -> tuple:
        """(min, max) capacitance in pF over the usable bias range."""
        return (float(self.capacitance_pf(self.max_reverse_voltage_v)),
                float(self.capacitance_pf(0.0)))


#: The SMV1233 varactor used by the LLAMA prototype.  Parameters are
#: fitted so the capacitance matches the paper's quoted 2.41 pF at 2 V
#: and 0.84 pF at 15 V reverse bias.
SMV1233 = VaractorDiode(
    name="SMV1233",
    junction_capacitance_f=5.41e-12,
    junction_potential_v=0.70,
    grading_coefficient=0.5986,
    package_capacitance_f=0.0,
    max_reverse_voltage_v=30.0,
    unit_cost_usd=0.5,
)

__all__ = ["VaractorDiode", "SMV1233"]
