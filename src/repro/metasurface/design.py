"""Design-space factories for the metasurface (paper Sec. 3.2 + Sec. 4).

The paper compares three designs:

* the *Rogers 5880 reference* design, a direct scaling of the 10 GHz
  rotator of Wu et al. [36] to 2.4 GHz — high efficiency but cost-
  prohibitive (Fig. 8);
* the *naive FR4* port: the same geometry printed on FR4, whose
  ~22x-higher loss tangent destroys the transmission efficiency (Fig. 9);
* the *optimized FR4* (LLAMA) design: fewer, thinner phase-shifter
  layers and simplified patterns that recover most of the efficiency at
  a scalable price point (Fig. 10).

Each factory returns a :class:`MetasurfaceDesign` whose :meth:`build`
assembles a :class:`Metasurface`.  The cost model follows the prototype
numbers from Sec. 4 ($540 of PCBs, 720 varactors at ~$0.50, ~$900 total,
$5/unit, ~$2/unit at scale).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.constants import (
    DEFAULT_CENTER_FREQUENCY_HZ,
    PROTOTYPE_SIDE_M,
    PROTOTYPE_UNIT_COUNT,
    PROTOTYPE_VARACTOR_COUNT,
)
from repro.metasurface.layers import BirefringentLayer, QuarterWavePlateLayer
from repro.metasurface.materials import FR4, ROGERS_5880, SubstrateMaterial
from repro.metasurface.phase_shifter import PhaseShifterLayer
from repro.metasurface.surface import Metasurface
from repro.metasurface.varactor import SMV1233, VaractorDiode


@dataclass(frozen=True)
class MetasurfaceDesign:
    """A named, parameterised metasurface design point.

    The design captures the knobs the paper tunes: substrate material,
    number of phase-shifter layers per axis, per-layer thickness, the
    loaded Q of the printed resonators and the dielectric fill factor
    (thinner layers store less energy in the lossy substrate), plus the
    assembled structure's band-pass selectivity.
    """

    name: str
    substrate: SubstrateMaterial
    layers_per_axis: int
    layer_thickness_m: float
    loaded_q: float
    dielectric_fill_factor: float
    qwp_loaded_q: float
    qwp_fill_factor: float
    selectivity_q: float
    design_frequency_hz: float = DEFAULT_CENTER_FREQUENCY_HZ
    filter_order: int = 1
    axis_detuning_hz: float = 15e6
    varactor: VaractorDiode = SMV1233
    inductance_h: float = 3.3e-9
    loading_factor: float = 0.88
    y_axis_inductance_scale: float = 1.06
    side_length_m: float = PROTOTYPE_SIDE_M
    unit_count: int = PROTOTYPE_UNIT_COUNT
    varactor_count: int = PROTOTYPE_VARACTOR_COUNT

    def __post_init__(self) -> None:
        if self.layers_per_axis < 1:
            raise ValueError("need at least one phase-shifter layer per axis")
        if self.layer_thickness_m <= 0:
            raise ValueError("layer thickness must be positive")
        if self.unit_count < 1 or self.varactor_count < 1:
            raise ValueError("unit and varactor counts must be positive")
        if self.y_axis_inductance_scale <= 0:
            raise ValueError("inductance scale must be positive")

    def build(self, prototype: bool = True) -> Metasurface:
        """Assemble the :class:`Metasurface` for this design point.

        Parameters
        ----------
        prototype:
            When True (default) the surface models the *fabricated*
            prototype, whose 0-30 V terminal sweep realises the designed
            2-15 V junction-voltage range (paper Sec. 3.3 attributes the
            higher required voltages to fabrication and assembly
            tolerances).  When False the idealised simulated structure is
            returned, matching the paper's HFSS results (Table 1,
            Figs. 8-11) where the stated voltages act directly on the
            varactor junctions.
        """
        shifter = PhaseShifterLayer(
            substrate=self.substrate,
            thickness_m=self.layer_thickness_m,
            varactor=self.varactor,
            inductance_h=self.inductance_h,
            loading_factor=self.loading_factor,
            loaded_q=self.loaded_q,
            dielectric_fill_factor=self.dielectric_fill_factor,
            design_frequency_hz=self.design_frequency_hz,
        )
        birefringent = BirefringentLayer.symmetric(
            shifter,
            layers_per_axis=self.layers_per_axis,
            y_axis_inductance_scale=self.y_axis_inductance_scale,
        )
        front = QuarterWavePlateLayer(
            substrate=self.substrate,
            thickness_m=self.layer_thickness_m,
            rotation_deg=+45.0,
            loaded_q=self.qwp_loaded_q,
            dielectric_fill_factor=self.qwp_fill_factor,
            design_frequency_hz=self.design_frequency_hz,
        )
        back = replace(front, rotation_deg=-45.0)
        return Metasurface(
            front_qwp=front,
            back_qwp=back,
            birefringent=birefringent,
            name=self.name,
            design_frequency_hz=self.design_frequency_hz,
            selectivity_q=self.selectivity_q,
            filter_order=self.filter_order,
            axis_detuning_hz=self.axis_detuning_hz,
            side_length_m=self.side_length_m,
            unit_count=self.unit_count,
            bias_derating=(2.0, 15.0) if prototype else None,
        )

    @property
    def total_layer_count(self) -> int:
        """Total board layers: the two QWPs plus the BFS layers."""
        return 2 + self.layers_per_axis

    @property
    def total_thickness_m(self) -> float:
        """Total stack thickness."""
        return self.total_layer_count * self.layer_thickness_m


def rogers_reference_design(
        design_frequency_hz: float = DEFAULT_CENTER_FREQUENCY_HZ) -> MetasurfaceDesign:
    """The high-performance Rogers 5880 reference design (paper Fig. 8).

    Directly scaled from the 10 GHz rotator of [36]: a thicker stack with
    more phase-shifter layers and higher-Q patterns — affordable in loss
    only because Rogers 5880's loss tangent is 0.0009.
    """
    return MetasurfaceDesign(
        name="Rogers 5880 reference",
        substrate=ROGERS_5880,
        layers_per_axis=3,
        layer_thickness_m=1.6e-3,
        loaded_q=15.0,
        dielectric_fill_factor=0.80,
        qwp_loaded_q=12.0,
        qwp_fill_factor=0.75,
        selectivity_q=16.0,
        design_frequency_hz=design_frequency_hz,
        loading_factor=0.60,
    )


def fr4_naive_design(
        design_frequency_hz: float = DEFAULT_CENTER_FREQUENCY_HZ) -> MetasurfaceDesign:
    """The naive FR4 port of the reference geometry (paper Fig. 9).

    Identical geometry to :func:`rogers_reference_design` but printed on
    FR4, whose loss tangent (0.02) is ~22x larger; the stored energy in
    the high-Q patterns is dissipated in the dielectric and the
    transmission efficiency collapses.
    """
    reference = rogers_reference_design(design_frequency_hz)
    return replace(reference, name="FR4 naive port", substrate=FR4)


def llama_design(
        design_frequency_hz: float = DEFAULT_CENTER_FREQUENCY_HZ) -> MetasurfaceDesign:
    """The paper's optimized FR4 design (Fig. 10, Fig. 6).

    Two phase-shifter layers per axis, thinner boards and simplified
    (lower-Q) patterns reduce the energy dissipated in the FR4 so that
    the in-band efficiency stays above the -5 dB target across a
    >100 MHz bandwidth.
    """
    return MetasurfaceDesign(
        name="LLAMA optimized FR4",
        substrate=FR4,
        layers_per_axis=2,
        layer_thickness_m=0.8e-3,
        loaded_q=5.5,
        dielectric_fill_factor=0.65,
        qwp_loaded_q=5.0,
        qwp_fill_factor=0.60,
        selectivity_q=12.0,
        design_frequency_hz=design_frequency_hz,
        loading_factor=0.88,
    )


def scaled_design(target_frequency_hz: float,
                  base: Optional[MetasurfaceDesign] = None) -> MetasurfaceDesign:
    """Scale a design to a different band (paper: 900 MHz RFID remark).

    Scaling a metasurface means growing the copper features and the unit
    cell by the wavelength ratio; electrically the design point is
    unchanged, so the loaded Q, fill factor and loss model carry over.
    The LC tank inductance scales with the linear dimension so that the
    same varactor capacitance range re-centres the resonance on the new
    band.
    """
    if target_frequency_hz <= 0:
        raise ValueError("target frequency must be positive")
    base = base if base is not None else llama_design()
    ratio = base.design_frequency_hz / target_frequency_hz
    return replace(
        base,
        name=f"{base.name} scaled to {target_frequency_hz / 1e9:.3f} GHz",
        design_frequency_hz=target_frequency_hz,
        inductance_h=base.inductance_h * ratio ** 2,
        layer_thickness_m=base.layer_thickness_m * ratio,
        side_length_m=base.side_length_m * ratio,
        axis_detuning_hz=base.axis_detuning_hz / ratio,
    )


def design_cost_usd(design: MetasurfaceDesign,
                    units: Optional[int] = None,
                    economies_of_scale: bool = False) -> float:
    """Estimate the build cost of a design in US dollars.

    The model reproduces the paper's prototype accounting: PCB cost
    proportional to substrate price, board area and layer count, plus the
    varactor population.  With ``economies_of_scale`` the per-unit cost
    approaches the paper's projected ~$2/unit for >3000-unit runs.
    """
    units = units if units is not None else design.unit_count
    if units < 1:
        raise ValueError("unit count must be positive")
    area_per_unit = design.side_length_m ** 2 / design.unit_count
    board_area = area_per_unit * units
    pcb_cost = (board_area * design.total_layer_count *
                design.substrate.cost_per_square_meter_usd)
    # Fabrication overhead (drilling, plating, assembly) dominates small
    # runs; the paper's $540 of PCBs for ~0.23 m^2 of multi-layer FR4
    # implies a large fixed component.
    fabrication_overhead = 50.0 + 2.0 * units if not economies_of_scale else 0.5 * units
    varactors_per_unit = design.varactor_count / design.unit_count
    varactor_cost = varactors_per_unit * units * design.varactor.unit_cost_usd
    discount = 0.6 if economies_of_scale else 1.0
    return discount * (pcb_cost + fabrication_overhead) + varactor_cost


__all__ = [
    "MetasurfaceDesign",
    "rogers_reference_design",
    "fr4_naive_design",
    "llama_design",
    "scaled_design",
    "design_cost_usd",
]
