"""End-to-end link budget with and without the metasurface.

This is the work-horse of the reproduction: every figure in the paper's
evaluation ultimately measures the power a receiver sees for some
combination of

* antenna orientations (matched / mismatched),
* metasurface presence, placement (transmissive / reflective) and bias
  voltages,
* transmit power, operating frequency and distances,
* environment (absorber-covered chamber vs multipath-rich laboratory).

The model is a coherent field-summation budget:

1. the *engineered* path (direct for baselines, through-surface or
   surface-reflected when the metasurface is deployed) is computed as a
   Jones field propagated with Friis amplitude scaling and transformed
   by the surface's Jones matrix;
2. environmental clutter rays (from :class:`MultipathEnvironment`) are
   added coherently, weighted by the receive antenna pattern;
3. the receive antenna projects the total field onto its polarization
   (with finite cross-polar isolation) to yield received power.

Performance contract: :class:`LinkConfiguration` is frozen, so a
:class:`WirelessLink` builds a plan (:class:`_LinkPlan`) on its first
pass that holds everything the configuration alone determines: the
antennas' Jones vectors and gains, the receive basis and cross-polar
floor, the fixed-geometry distances with their free-space loss and
carrier phasor, the pattern-weighted clutter field and the direct,
clutter and incident fields at the configured point.  A pass then does
only array math on its overrides: it recomputes a path's loss and phase
only when a distance or frequency axis overrides them, rebuilds the
direct and clutter fields only under a power, distance, frequency or
transmit-orientation axis, and makes one Jones batch call for the bias
half before it contracts and projects (or, separable, multiplies).  The
budget itself exists exactly once, in the N-D grid engine behind
:meth:`WirelessLink.evaluate`: hand it a
:class:`~repro.channel.grid.ProbeGrid` over bias voltages and any
subset of :data:`~repro.channel.grid.SWEEP_AXES` and the whole product
grid evaluates in a single vectorized pass.  The scalar
:meth:`WirelessLink.received_power_dbm` is a thin view over that
engine, pinned to it within 1e-9 dB by the parity suites; bias grids
and link-parameter axes are probed only through a grid.

The engine picks one of two paths from the broadcast shapes alone.  A
shared bias lattice crossed with stations — bias arrays and per-station
distance / transmit-power / transmit-orientation overrides in disjoint
blocks of dimensions, each side more than one point, as in the
controller's ``(1, k)`` rows, the world's ``(k, 1, 1) x (1, T, N)``
retune cube and the TDMA lattice probe (``(1, k)`` voltages through
``LinkEnsemble.measure_aligned``) — is separable: the received
field is affine in the surface's Jones matrix, so the pass is one
small matrix product of lattice features by station features and never
builds the per-cell field.  Everything else (aligned per-point windows,
frequency or receive-orientation axes, bias-only probes of one link,
links without a surface) takes the general path, which contracts the
full field and is the parity reference (``tests/channel/
test_separable_budget.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, Optional

import numpy as np

from repro.channel.antenna import Antenna
from repro.channel.capacity import shannon_spectral_efficiency
from repro.channel.freespace import unchecked_path_loss_db
from repro.channel.geometry import LinkGeometry
from repro.channel.grid import ProbeGrid, SWEEP_AXES
from repro.channel.multipath import MultipathEnvironment
from repro.channel.noise import thermal_noise_dbm
from repro.constants import DEFAULT_CENTER_FREQUENCY_HZ, SPEED_OF_LIGHT
from repro.core.jones import JonesVector
from repro.metasurface.surface import Metasurface

#: Process-local count of link-budget engine passes (see
#: :func:`probe_evaluations`).
_BUDGET_EVALUATIONS = 0


def probe_evaluations() -> int:
    """How many times this process ran the link-budget engine.

    Every probe in the reproduction — scalar, batch, sweep, grid, fleet
    — funnels through :meth:`WirelessLink._budget_power_dbm`, so this
    counter is the backend instrumentation the result-store tests use
    to prove a warm :class:`~repro.experiments.store.ResultStore` run
    performs **zero** probe evaluations.  Compare deltas rather than
    absolute values; the counter is never reset.
    """
    return _BUDGET_EVALUATIONS


def _rotation_frame(base) -> np.ndarray:
    """``[b, u, u_perp]`` of a base polarization vector ``b``: its unit
    vector ``u`` and the quarter turn ``u_perp = (-u_y, u_x)``, the
    constants of :func:`_rotated_jones` (complex ``(3, 2)``)."""
    unit = np.array([base.x, base.y], dtype=complex) / base.amplitude
    return np.array([[base.x, base.y], unit, [-unit[1], unit[0]]],
                    dtype=complex)


def _rotated_jones(frame: np.ndarray, angles_deg: np.ndarray) -> np.ndarray:
    """Jones vectors of an antenna rotated to each of ``angles_deg``.

    ``frame`` is the :func:`_rotation_frame` of the antenna's base
    polarization.  The array form of ``antenna.rotated(angle).jones``,
    shaped ``angles_deg.shape + (2,)``.  Like :meth:`Antenna.rotated`,
    an angle *replaces* the configured orientation: the rotation applies
    to the base polarization, and an angle of exactly 0 returns that
    base vector unrotated (as :attr:`Antenna.effective_polarization`
    does).  A rotation keeps the norm, so rotating the unit vector gives
    the normalised result: ``R(theta) u = cos(theta) u + sin(theta)
    u_perp``.
    """
    angles_deg = np.asarray(angles_deg, dtype=float)
    theta = np.radians(angles_deg)[..., None]
    return np.where((angles_deg == 0.0)[..., None], frame[0],
                    np.cos(theta) * frame[1] + np.sin(theta) * frame[2])


def _propagation(distance_m, frequency_hz):
    """Free-space path loss (dB) and carrier phasor ``e^{j phi}`` over
    ``distance_m`` at ``frequency_hz`` (scalars or broadcastable
    arrays).  The frequency is not re-checked: the configuration and
    the grid's axis parameters validated it."""
    wavelength = SPEED_OF_LIGHT / frequency_hz
    return (unchecked_path_loss_db(distance_m, frequency_hz),
            np.exp(1j * np.asarray(2.0 * math.pi * distance_m / wavelength)))


def _path_amplitude(tx_power_dbm, gain_db, loss_db):
    """Field amplitude (relative to 1 mW into an isotropic antenna) of a
    path with ``gain_db`` of antenna gains and ``loss_db`` of
    propagation loss."""
    return 10.0 ** ((tx_power_dbm + gain_db - loss_db) / 20.0)


def _positive_finite(values: np.ndarray) -> np.ndarray:
    """Element-wise ``0 < values < inf`` (NaN fails it)."""
    return np.isfinite(values) & (values > 0)


def _separable_layout(shape, bias_shapes, station_shapes):
    """The layout of a separable budget pass over ``shape``, or ``None``.

    ``shape`` is the broadcast shape of the bias arrays' ``bias_shapes``
    and the overrides' ``station_shapes``.  A side spans the dimensions
    where one of its shapes is not one long.  The pass is separable when
    the two sides span two blocks of dimensions, all of one side's
    before all of the other's, and each side has more than one point; a
    dimension one long on both sides belongs to neither.  Returns
    ``(station, bias_first)``: the station shape padded to ``shape``'s
    rank, and whether the bias block comes first.
    """
    masks = []
    for shapes in (bias_shapes, station_shapes):
        mask = 0
        for each in shapes:
            for dim, size in enumerate(each, len(shape) - len(each)):
                if size != 1:
                    mask |= 1 << dim
        masks.append(mask)
    bias, station = masks
    bias_first = bias < (station & -station)
    if not (bias_first or station < (bias & -bias)):
        return None
    station_shape = tuple(size if station >> dim & 1 else 1
                          for dim, size in enumerate(shape))
    station_count = math.prod(station_shape)
    if station_count < 2 or math.prod(shape) < 2 * station_count:
        return None
    return station_shape, bias_first


class DeploymentMode(Enum):
    """How (and whether) the metasurface participates in the link."""

    NONE = "none"
    TRANSMISSIVE = "transmissive"
    REFLECTIVE = "reflective"


@dataclass(frozen=True)
class LinkConfiguration:
    """Static description of a point-to-point link under test.

    Attributes
    ----------
    tx_antenna, rx_antenna:
        Endpoint antennas (their ``orientation_deg`` encodes the
        polarization alignment; orthogonal orientations reproduce the
        paper's "mismatch" setup).
    geometry:
        Positions of the endpoints and the surface.
    frequency_hz:
        Carrier frequency.
    tx_power_dbm:
        Transmit power.
    bandwidth_hz:
        Channel bandwidth used for noise/capacity computations (the
        paper's USRP setup uses a 500 kHz tone observed at 1 MS/s).
    noise_figure_db:
        Receiver noise figure.
    environment:
        Multipath environment (defaults to the absorber-covered chamber).
    metasurface:
        The deployed surface, or ``None`` for baseline measurements.
    deployment:
        Whether the surface acts in transmissive or reflective mode.
    surface_obstruction_db:
        Penetration loss of the structural element (e.g. wall) hosting
        the surface, applied to the direct path in reflective layouts
        where the direct path does not cross the surface (0 by default).
    aim_at_surface:
        When True the endpoint antennas are physically aimed at the
        surface position rather than at each other — the paper's
        reflective experiments are set up this way.  The flag is kept
        when building the no-surface baseline so that "with" and
        "without" comparisons share identical antenna aiming.
    clutter_blocking_db:
        Attenuation the deployed surface applies to environmental
        clutter crossing its aperture in the transmissive layout (the
        0.48 m panel physically sits between the endpoints and shadows
        part of the multipath).  Applied only when a transmissive surface
        is present; it is one of the reasons the paper observes the
        surface *hurting* low-power omni links in rich multipath
        (Sec. 5.1.2).
    interference_floor_dbm:
        Effective noise-plus-interference floor of the receiver.  The
        2.4 GHz ISM band in an ordinary laboratory is interference
        limited rather than thermal-noise limited; the capacity
        experiments of Figs. 18-19 use this knob.  ``None`` keeps the
        thermal floor.
    """

    tx_antenna: Antenna
    rx_antenna: Antenna
    geometry: LinkGeometry
    frequency_hz: float = DEFAULT_CENTER_FREQUENCY_HZ
    tx_power_dbm: float = 0.0
    bandwidth_hz: float = 500e3
    noise_figure_db: float = 6.0
    environment: MultipathEnvironment = field(
        default_factory=MultipathEnvironment.anechoic)
    metasurface: Optional[Metasurface] = None
    deployment: DeploymentMode = DeploymentMode.NONE
    surface_obstruction_db: float = 0.0
    aim_at_surface: bool = False
    clutter_blocking_db: float = 6.0
    interference_floor_dbm: Optional[float] = None

    def __post_init__(self) -> None:
        # Every check fails for NaN, so a non-finite number is rejected
        # here rather than turning into NaN power (or a
        # ZeroDivisionError) inside a budget pass.
        for name, value in (("frequency", self.frequency_hz),
                            ("bandwidth", self.bandwidth_hz)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value!r}")
        for name, value in (("noise figure", self.noise_figure_db),
                            ("surface obstruction",
                             self.surface_obstruction_db),
                            ("clutter blocking", self.clutter_blocking_db)):
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, "
                                 f"got {value!r}")
        for name, value in (("transmit power", self.tx_power_dbm),
                            ("interference floor",
                             self.interference_floor_dbm)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if (self.deployment is not DeploymentMode.NONE and
                self.metasurface is None):
            raise ValueError(
                "a metasurface must be provided for transmissive/reflective "
                "deployments")

    def without_surface(self) -> "LinkConfiguration":
        """Return the matching baseline configuration (no metasurface)."""
        return replace(self, metasurface=None, deployment=DeploymentMode.NONE)

    def with_tx_power_dbm(self, tx_power_dbm: float) -> "LinkConfiguration":
        """Return a copy at a different transmit power."""
        return replace(self, tx_power_dbm=tx_power_dbm)

    def with_frequency_hz(self, frequency_hz: float) -> "LinkConfiguration":
        """Return a copy at a different carrier frequency."""
        return replace(self, frequency_hz=frequency_hz)


@dataclass(frozen=True)
class LinkReport:
    """Result of evaluating a link at one operating point."""

    received_power_dbm: float
    snr_db: float
    spectral_efficiency_bps_hz: float
    noise_power_dbm: float
    engineered_path_power_dbm: float
    clutter_power_dbm: float


@dataclass(frozen=True, eq=False)
class _LinkPlan:
    """Everything a budget pass reads from a link's frozen configuration.

    Built once per :class:`WirelessLink` (lazily, on its first pass), so
    a pass does only array math on its overrides: no geometry norms, no
    free-space loss or carrier phase at the configured distances and no
    antenna lookups.

    Attributes
    ----------
    frequency_hz, tx_power_dbm:
        The configured carrier (validated by the configuration) and
        transmit power.
    tx_frame, rx_frame:
        :func:`_rotation_frame` of each antenna's base polarization (the
        orientation axes rotate it).
    tx_jones:
        The configured transmit antenna's complex ``(2,)`` Jones vector.
    basis:
        Rows ``conj(r)`` and ``conj(r⊥)`` of the receive basis of the
        separable path.
    floor:
        Linear cross-polar isolation floor of the receive antenna.
    direct_distance_m, via_distance_m, surface_fraction:
        The fixed geometry: Tx-Rx distance, Tx-surface-Rx path length
        and the surface's fractional position (the distance axis keeps
        it; 0.5 for a non-canonical layout).
    direct_gain_db, via_gain_db, clutter_gain_db:
        Antenna gains (less the obstruction or the clutter shadowing) of
        the direct, via-surface and clutter paths.
    obstruction_db:
        Direct-path obstruction loss (the aimed-gain overrides keep it).
    direct_path, via_path:
        ``(free-space loss in dB, carrier phasor)`` of the two fixed
        paths.
    clutter_unit:
        Pattern-weighted unit clutter field, complex ``(2,)``.
    background:
        Direct plus clutter field at the configured point.
    incident:
        Via-surface incident field at the configured point (zero
        without a surface).
    """

    frequency_hz: float
    tx_power_dbm: float
    tx_frame: np.ndarray
    rx_frame: np.ndarray
    tx_jones: np.ndarray
    basis: np.ndarray
    floor: float
    direct_distance_m: float
    via_distance_m: float
    surface_fraction: float
    direct_gain_db: float
    via_gain_db: float
    clutter_gain_db: float
    obstruction_db: float
    direct_path: tuple
    via_path: tuple
    clutter_unit: np.ndarray
    background: np.ndarray
    incident: np.ndarray


class WirelessLink:
    """Evaluates :class:`LinkConfiguration` instances.

    The link object is stateless apart from its (frozen) configuration
    and the plan derived from it, so the controller can probe arbitrary
    bias voltages cheaply and reproducibly.  Everything that depends on
    the configuration alone — the direct and clutter fields, the fixed
    path losses, the antennas' vectors — is computed exactly once per
    link; every probe after the first only pays for its overrides and
    the surface response.
    """

    def __init__(self, configuration: LinkConfiguration):
        self._configuration = configuration
        self._plan_cache: Optional[_LinkPlan] = None
        self._direct_field_cache: Optional[JonesVector] = None
        self._clutter_field_cache: Optional[JonesVector] = None

    @property
    def configuration(self) -> LinkConfiguration:
        """The (frozen) link configuration under evaluation.

        Read-only: the cached voltage-independent fields are derived
        from it, so swapping configurations means building a new link
        (they are cheap to construct).
        """
        return self._configuration

    @property
    def _plan(self) -> _LinkPlan:
        """The link's :class:`_LinkPlan`, built on first use."""
        if self._plan_cache is None:
            self._plan_cache = self._build_plan()
        return self._plan_cache

    def _build_plan(self) -> _LinkPlan:
        """Everything the configuration alone determines, computed once."""
        config = self._configuration
        geometry = config.geometry
        tx, rx = config.tx_antenna, config.rx_antenna
        direct_distance = geometry.direct_distance_m
        via_distance = geometry.tx_to_surface_m + geometry.surface_to_rx_m
        fraction = geometry.tx_to_surface_m / direct_distance
        if not (0.0 < fraction < 1.0):
            # Degenerate/non-canonical layout: keep the surface midway,
            # which is where every canonical transmissive setup puts it.
            fraction = 0.5
        # Antenna aiming convention: in direct/transmissive layouts the
        # endpoints face each other, so the direct path is on boresight;
        # with ``aim_at_surface`` (the paper's reflective experiments)
        # the antennas point at the surface position, so the direct path
        # suffers each antenna's pattern roll-off at the angle between
        # its peer and the surface — both with and without the surface
        # present.  The surface itself sits on boresight in both the
        # transmissive layout (colinear) and the reflective layout (the
        # endpoints are aimed at it), so the via-surface path gets the
        # full antenna gains.
        if config.deployment is DeploymentMode.TRANSMISSIVE:
            direct_gains = 0.0  # no direct path (see _direct_fields)
        elif config.aim_at_surface:
            direct_gains = (
                tx.gain_dbi_towards(geometry.angle_at_transmitter_deg()) +
                rx.gain_dbi_towards(geometry.angle_at_receiver_deg()))
        else:
            direct_gains = tx.gain_dbi + rx.gain_dbi
        obstruction = (config.surface_obstruction_db
                       if config.deployment is DeploymentMode.NONE else 0.0)
        blocking = (config.clutter_blocking_db
                    if config.deployment is DeploymentMode.TRANSMISSIVE
                    else 0.0)
        direct_path = _propagation(direct_distance, config.frequency_hz)
        via_loss, via_rotation = via_path = _propagation(via_distance,
                                                         config.frequency_hz)
        arrays = config.environment.ray_arrays()
        clutter_unit = (np.zeros(2, dtype=complex) if arrays.count == 0
                        else arrays.unit_field(extra_gain_db=rx.pattern_gain_db(
                            arrays.arrival_angle_deg)))
        tx_jones = np.array([tx.jones.x, tx.jones.y], dtype=complex)
        rx_jones = np.array([rx.jones.x, rx.jones.y], dtype=complex)
        via_gain = tx.gain_dbi + rx.gain_dbi
        incident = (_path_amplitude(config.tx_power_dbm, via_gain, via_loss)
                    * via_rotation * tx_jones if self._has_surface()
                    else np.zeros(2, dtype=complex))
        plan = _LinkPlan(
            frequency_hz=config.frequency_hz,
            tx_power_dbm=config.tx_power_dbm,
            tx_frame=_rotation_frame(tx.polarization.jones),
            rx_frame=_rotation_frame(rx.polarization.jones),
            tx_jones=tx_jones,
            # Rows conj(r) and conj(r⊥), with r⊥ = (-conj(r_y), conj(r_x)).
            basis=np.array([rx_jones.conj(), [-rx_jones[1], rx_jones[0]]]),
            floor=10.0 ** (-rx.cross_pol_isolation_db / 10.0),
            direct_distance_m=direct_distance, via_distance_m=via_distance,
            surface_fraction=fraction,
            direct_gain_db=direct_gains - obstruction, via_gain_db=via_gain,
            clutter_gain_db=tx.gain_dbi + rx.gain_dbi - blocking,
            obstruction_db=obstruction,
            direct_path=direct_path, via_path=via_path,
            clutter_unit=clutter_unit, background=np.zeros(2, dtype=complex),
            incident=incident)
        return replace(plan, background=(
            self._direct_fields(plan, {}, direct_path) +
            self._clutter_fields(plan, {}, direct_path)))

    # ------------------------------------------------------------------ #
    # Field-level building blocks
    # ------------------------------------------------------------------ #
    def _direct_field(self) -> JonesVector:
        """Field of the direct Tx->Rx path (cached: voltage-independent)."""
        if self._direct_field_cache is None:
            self._direct_field_cache = self._compute_direct_field()
        return self._direct_field_cache

    def _compute_direct_field(self) -> JonesVector:
        """The cached scalar view of :meth:`_direct_fields`."""
        plan = self._plan
        fields = self._direct_fields(plan, {}, plan.direct_path)
        return JonesVector(complex(fields[0]), complex(fields[1]))

    def _clutter_field(self) -> JonesVector:
        """Total clutter field weighted by the receive antenna pattern
        (cached: voltage-independent).

        When a transmissive surface is deployed it physically shadows
        part of the room, so the clutter is additionally attenuated by
        ``clutter_blocking_db``.
        """
        if self._clutter_field_cache is None:
            plan = self._plan
            fields = self._clutter_fields(plan, {}, plan.direct_path)
            self._clutter_field_cache = JonesVector(complex(fields[0]),
                                                    complex(fields[1]))
        return self._clutter_field_cache

    def _surface_field(self, vx: float, vy: float) -> JonesVector:
        """The via-surface field at one bias pair (zero without a
        surface)."""
        fields = (self._surface_fields(vx, vy, {})
                  if self._has_surface() else np.zeros(2, dtype=complex))
        return JonesVector(complex(fields[..., 0]), complex(fields[..., 1]))

    def _has_surface(self) -> bool:
        config = self._configuration
        return (config.metasurface is not None and
                config.deployment is not DeploymentMode.NONE)

    @staticmethod
    def _path(plan: _LinkPlan, params: Dict, via: bool):
        """``(free-space loss in dB, carrier phasor)`` of the direct or
        the via-surface path at the pass's overrides: the plan's own
        unless a distance or frequency axis overrides them."""
        distance = params.get("via_distance_m" if via else
                              "direct_distance_m")
        frequency = params.get("frequency_hz")
        if distance is None and frequency is None:
            return plan.via_path if via else plan.direct_path
        if distance is None:
            distance = plan.via_distance_m if via else plan.direct_distance_m
        return _propagation(distance, plan.frequency_hz if frequency is None
                            else frequency)

    def _direct_fields(self, plan: _LinkPlan, params: Dict,
                       path) -> np.ndarray:
        """Field of the direct Tx->Rx path (no surface interaction).

        The single implementation of the direct-path budget: ``params``
        holds the pass's override arrays (see :meth:`_axis_parameters`),
        any of which may be absent, and ``path`` is the direct
        :meth:`_path` at them; the result is a complex ``(..., 2)``
        array of Jones fields.
        """
        if self._configuration.deployment is DeploymentMode.TRANSMISSIVE:
            # In the transmissive layout the only Tx->Rx route crosses
            # the surface; there is no separate unobstructed direct path.
            return np.zeros(2, dtype=complex)
        loss, rotation = path
        tx_gain = params.get("direct_tx_gain_dbi")
        gain = (plan.direct_gain_db if tx_gain is None else
                tx_gain + params["direct_rx_gain_dbi"] - plan.obstruction_db)
        amplitude = _path_amplitude(params.get("tx_power_dbm",
                                               plan.tx_power_dbm), gain, loss)
        tx_jones = params.get("tx_jones", plan.tx_jones)
        return (amplitude * rotation)[..., None] * tx_jones

    def _clutter_fields(self, plan: _LinkPlan, params: Dict,
                        path) -> np.ndarray:
        """Clutter field at the pass's overrides, complex ``(..., 2)``.

        The pattern-weighted unit clutter field scaled by the direct
        path's reference amplitude (``path`` is the direct :meth:`_path`;
        the clutter rays' polarizations come from
        the scattering environment, so it is independent of the
        transmit polarization).
        """
        loss, _rotation = path
        reference = _path_amplitude(
            params.get("tx_power_dbm", plan.tx_power_dbm),
            plan.clutter_gain_db, loss)
        return np.asarray(reference)[..., None] * plan.clutter_unit

    def _background(self, plan: _LinkPlan, params: Dict) -> np.ndarray:
        """Direct plus clutter field, at the small shape of the
        overrides they depend on (the plan's field without any)."""
        if not (params.keys() - {"via_distance_m", "rx_jones"}):
            return plan.background
        path = self._path(plan, params, via=False)
        return (self._direct_fields(plan, params, path) +
                self._clutter_fields(plan, params, path))

    def _incident_fields(self, plan: _LinkPlan, params: Dict) -> np.ndarray:
        """Via-surface path phasor folded into the transmit polarization.

        The voltage-independent half of every via-surface field, a
        complex ``(..., 2)`` array at the broadcast shape of the
        overrides alone: the surface field is this vector transformed
        by :meth:`_surface_jones`.
        """
        if not (params.keys() - {"direct_distance_m", "rx_jones",
                                 "direct_tx_gain_dbi", "direct_rx_gain_dbi"}):
            return plan.incident
        loss, rotation = self._path(plan, params, via=True)
        amplitude = _path_amplitude(
            params.get("tx_power_dbm", plan.tx_power_dbm), plan.via_gain_db,
            loss)
        return (amplitude * rotation)[..., None] * params.get(
            "tx_jones", plan.tx_jones)

    def _surface_jones(self, vx, vy, frequency_hz) -> np.ndarray:
        """The deployed surface's ``(..., 2, 2)`` Jones matrices.

        Transmission or reflection matrices per the deployment mode, at
        the broadcast shape of (frequency, Vx, Vy) — the bias half of
        every via-surface field.  A bias lattice shared by many
        operating points (the controller hands it over as one ``(1, k)``
        row) costs one Jones batch of ``k`` elements, not one per cell.
        """
        config = self._configuration
        if config.deployment is DeploymentMode.TRANSMISSIVE:
            return config.metasurface.jones_matrix_batch(frequency_hz, vx, vy)
        return config.metasurface.reflection_jones_matrix_batch(
            frequency_hz, vx, vy)

    def _surface_fields(self, vx, vy, params: Dict) -> np.ndarray:
        """Field of the path that interacts with the metasurface.

        The single implementation of the via-surface budget on a link
        with a surface: the Jones matrices of :meth:`_surface_jones`
        contracted against the incident fields of
        :meth:`_incident_fields`, a complex ``(..., 2)`` array at the
        broadcast shape of the bias arrays and the overrides.  The path
        phasor is folded into the incident polarization before the
        contraction, so the full-size work is the contraction itself.
        """
        plan = self._plan
        jones = self._surface_jones(
            vx, vy, params.get("frequency_hz", plan.frequency_hz))
        incident = self._incident_fields(plan, params)
        # Contract the (..., 2, 2) Jones matrices against the (..., 2)
        # incident fields with full leading-dimension broadcasting
        # (written out: several times faster than a broadcast einsum).
        return (jones[..., 0] * incident[..., None, 0] +
                jones[..., 1] * incident[..., None, 1])

    # ------------------------------------------------------------------ #
    # Shared power projection
    # ------------------------------------------------------------------ #
    def _project_power_dbm(self, fields: np.ndarray,
                           rx_jones: Optional[np.ndarray] = None) -> np.ndarray:
        """Project total fields onto the receive polarization (dBm).

        ``fields`` is a complex ``(..., 2)`` array; ``rx_jones`` an
        optional ``(..., 2)`` array of receive Jones vectors (defaults
        to the configured antenna), broadcast against the fields.
        Applies the same finite cross-polar-isolation floor as the
        scalar :meth:`Antenna.polarization_coupling` path.
        """
        ex, ey = fields[..., 0], fields[..., 1]
        rx_conj = (self._plan.basis[0] if rx_jones is None
                   else np.conj(rx_jones))
        intensity = ex.real ** 2 + ex.imag ** 2 + ey.real ** 2 + ey.imag ** 2
        projected = rx_conj[..., 0] * ex + rx_conj[..., 1] * ey
        return self._clamped_power_dbm(
            projected.real ** 2 + projected.imag ** 2, intensity)

    def _clamped_power_dbm(self, matched, intensity) -> np.ndarray:
        """The projection tail both budget paths end in (dBm).

        ``matched`` is the matched power ``|<rx|E>|²`` and ``intensity``
        the field's ``|E|²``.  ``matched`` is scratch: the clamps run in
        place on it.
        """
        # |<rx|E>|^2 clamped into [floor, 1] x intensity: the matched
        # fraction never exceeds one nor falls below the cross-polar
        # isolation floor, and a zero field stays exactly zero.
        power = np.asarray(matched)
        np.maximum(power, self._plan.floor * intensity, out=power)
        np.minimum(power, intensity, out=power)
        np.maximum(power, 1e-20, out=power)
        return 10.0 * np.log10(power, out=power)

    # ------------------------------------------------------------------ #
    # The N-D evaluation engine
    # ------------------------------------------------------------------ #
    def _geometry_at_distance(self, distance_m: float) -> LinkGeometry:
        """Geometry of this link's layout at a swept distance.

        Transmissive and no-surface layouts vary the Tx-Rx distance with
        the surface staying at the same fractional position between the
        endpoints; aimed-at-surface (reflective) layouts keep the
        endpoints fixed and vary the surface's perpendicular offset —
        exactly the two distance axes of the paper's Figs. 16 and 22.
        The scalar reference for the closed-form distance axis of
        :meth:`_axis_parameters` (and the per-station geometry of
        :meth:`~repro.channel.ensemble.LinkEnsemble.configuration_for`).
        """
        config = self._configuration
        plan = self._plan
        if config.deployment is DeploymentMode.REFLECTIVE or config.aim_at_surface:
            return LinkGeometry.reflective(plan.direct_distance_m, distance_m)
        return LinkGeometry.transmissive(
            distance_m, surface_fraction=plan.surface_fraction)

    def _axis_parameters(self, axis: str, values: np.ndarray) -> Dict:
        """Per-point parameter arrays for one link-parameter grid axis.

        ``axis`` is one of :data:`~repro.channel.grid.SWEEP_AXES`
        (:class:`ProbeGrid` rejects any other name).  Returns overrides
        (each shaped like ``values``) consumed by the
        :meth:`_budget_power_dbm` engine; parameters not overridden stay
        at their configured scalar values.
        """
        if axis == "frequency":
            if not _positive_finite(values).all():
                raise ValueError("frequencies must be positive and finite")
            return {"frequency_hz": values}
        if axis == "tx_power":
            if not np.isfinite(values).all():
                raise ValueError("transmit powers must be finite")
            return {"tx_power_dbm": values}
        if axis == "distance":
            return self._distance_parameters(values)
        if axis == "rx_orientation":
            return {"rx_jones": _rotated_jones(self._plan.rx_frame, values)}
        return {"tx_jones": _rotated_jones(self._plan.tx_frame, values)}

    def _distance_parameters(self, values: np.ndarray) -> Dict:
        """The ``distance`` axis in closed form, one array pass.

        Element-wise identical (to round-off) to building
        :meth:`_geometry_at_distance` per point: the canonical layouts
        are planar, so the path lengths and the aimed-antenna angle
        reduce to a few array expressions.  Non-positive or non-finite
        distances raise the same ``ValueError`` as :class:`LinkGeometry`'s
        factories.
        """
        config = self._configuration
        plan = self._plan
        values = np.asarray(values, dtype=float)
        if config.deployment is DeploymentMode.REFLECTIVE or config.aim_at_surface:
            # Endpoints fixed `separation` apart; the surface sits
            # `values` out on their perpendicular bisector.
            if not _positive_finite(values).all():
                raise ValueError("surface offset must be positive and finite")
            separation = plan.direct_distance_m
            half = separation / 2.0
            leg = np.sqrt(half * half + values * values)
            overrides = {"direct_distance_m": np.full(values.shape,
                                                      separation),
                         "via_distance_m": 2.0 * leg}
            if config.aim_at_surface:
                # Both antennas aim at the surface, so the direct path
                # is off boresight by the same angle at either end.
                angle = np.degrees(np.arccos(np.clip(half / leg, -1.0, 1.0)))
                overrides["direct_tx_gain_dbi"] = (
                    config.tx_antenna.gain_dbi_towards(angle))
                overrides["direct_rx_gain_dbi"] = (
                    config.rx_antenna.gain_dbi_towards(angle))
            return overrides
        if not _positive_finite(values).all():
            raise ValueError("Tx-Rx distance must be positive and finite")
        to_surface = values * plan.surface_fraction
        return {"direct_distance_m": values,
                "via_distance_m": to_surface + (values - to_surface)}

    def _budget_power_dbm(self, vx, vy, params: Dict) -> np.ndarray:
        """The one link-budget engine every public entry point views.

        ``vx`` / ``vy`` are bias-voltage scalars or arrays; ``params``
        carries the per-axis override arrays built by
        :meth:`_axis_parameters`.  Everything broadcasts against
        everything, so a single pass covers scalar probes, bias grids,
        single-axis sweeps and full N-D product grids alike.  Whatever
        the link's configuration alone determines comes from its plan
        (:class:`_LinkPlan`); a pass computes only what its overrides
        change, at their own (small) shapes.

        Two paths, chosen by the broadcast shapes alone.  When the bias
        arrays and the overrides span disjoint blocks of dimensions,
        each side with more than one point, and no override is a
        frequency or a receive orientation — a shared bias lattice
        crossed with stations: the controller's ``(1, k)`` rows, the
        world's ``(k, 1, 1) x (1, T, N)`` candidate cube, the TDMA
        lattice probe — the pass is separable and
        :meth:`_separable_power_dbm` evaluates it as one small matrix
        product (see :func:`_separable_layout`).  Every other shape
        (aligned per-point windows, frequency axes, bias-only or
        single-station probes, links without a surface) contracts the
        full field and projects it: the general path, and the parity
        reference.  Both end in :meth:`_clamped_power_dbm`.
        """
        global _BUDGET_EVALUATIONS
        _BUDGET_EVALUATIONS += 1
        plan = self._plan
        vx = np.asarray(vx, dtype=float)
        vy = np.asarray(vy, dtype=float)
        overrides = [value[..., 0] if key in ("rx_jones", "tx_jones")
                     else value for key, value in params.items()]
        station_shapes = [np.shape(value) for value in overrides]
        shape = np.broadcast(vx, vy, *overrides).shape
        # The direct and clutter fields are voltage-independent: they
        # sum first, at the small shape of the overrides they depend on.
        background = self._background(plan, params)
        if not self._has_surface():
            return self._project_power_dbm(
                np.broadcast_to(background, shape + (2,)),
                rx_jones=params.get("rx_jones"))

        layout = (_separable_layout(shape, (vx.shape, vy.shape),
                                    station_shapes)
                  if (params and "frequency_hz" not in params and
                      "rx_jones" not in params)
                  else None)
        if layout is not None:
            return self._separable_power_dbm(
                vx, vy, self._incident_fields(plan, params), background,
                shape, *layout)
        # The surface field is the one full-size term, so the total
        # costs a single full-size add.
        fields = np.broadcast_to(
            self._surface_fields(vx, vy, params) + background, shape + (2,))
        return self._project_power_dbm(fields, rx_jones=params.get("rx_jones"))

    def _separable_power_dbm(self, vx, vy, incident, background, shape,
                             station, bias_first) -> np.ndarray:
        """A bias lattice x stations pass as one small matrix product.

        The received field is affine in the surface's Jones matrix,
        ``E(s, k) = J(k)·i_s + h_s`` (``i_s`` the incident field of
        :meth:`_incident_fields`, ``h_s`` the direct + clutter
        background), and so is its projection onto any receive vector
        ``b``: ``b^H E = (b^H J(k))·i_s + b^H h_s``.  The projections
        onto the unit receive polarization ``r`` and onto its orthogonal
        complement ``r⊥`` are the matched amplitude and, in quadrature
        with it, the whole field: ``|E|² = |r^H E|² + |r⊥^H E|²``.  The
        real and imaginary parts of both come out of one real matrix
        product of eight station features ``[i_s, r^H h_s, r⊥^H h_s]``
        (real and imaginary parts interleaved) with eight features per
        lattice point and part; the ``(S, K, 2)`` field is never built,
        and as both squared terms are non-negative a near-null field
        (``J·i ≈ −h``) keeps the precision of the general path.
        ``station`` and ``bias_first`` are the layout of
        :func:`_separable_layout`; the product is laid out ``(K, S)`` or
        ``(S, K)`` in the order the two blocks take in ``shape``, so the
        result is a reshape of it.
        """
        plan = self._plan
        basis = plan.basis
        jones = self._surface_jones(vx, vy, plan.frequency_hz).reshape(-1, 2, 2)
        # terms[0, j, k] = conj([basis_j · J(k), unit vector j]) and
        # terms[1] = 1j·terms[0]: dotted with the interleaved station
        # features, the float view of conj(t) gives Re(t·x) and that of
        # 1j·conj(t) gives Im(t·x).
        terms = np.zeros((2, 2, len(jones), 4), dtype=complex)
        terms[0, ..., :2] = (basis[:, None, 0, None] * jones[:, 0] +
                             basis[:, None, 1, None] * jones[:, 1])
        terms[0, 0, :, 2] = terms[0, 1, :, 3] = 1.0
        np.conj(terms[0], out=terms[0])
        np.multiply(terms[0], 1j, out=terms[1])
        lattice = terms.view(float)
        features = np.empty(station + (4,), dtype=complex)
        features[..., :2] = incident
        features[..., 2:] = background @ basis.T
        features = features.reshape(-1, 4).view(float)
        # product[re/im, r/r⊥] is (K, S) or (S, K).
        if bias_first:
            product = lattice @ features.T
        else:
            product = features @ lattice.transpose(0, 1, 3, 2)
        np.square(product, out=product)
        matched = np.add(product[0, 0], product[1, 0], out=product[0, 0])
        intensity = np.add(product[0, 1], product[1, 1], out=product[0, 1])
        intensity += matched
        return self._clamped_power_dbm(matched, intensity).reshape(shape)

    def evaluate_grid(self, grid: ProbeGrid) -> np.ndarray:
        """Received power (dBm) at every operating point of a grid.

        ``grid`` is a :class:`~repro.channel.grid.ProbeGrid` over the
        ``vx`` / ``vy`` bias axes and any subset of
        :data:`~repro.channel.grid.SWEEP_AXES`; axes absent from the
        grid stay at the configured scalar values (voltages default to
        0 V).  The full product grid — e.g. frequency x distance x
        bias heatmaps — evaluates in one vectorized pass of the budget,
        and the returned array has ``grid.shape``.
        """
        vx = vy = 0.0
        params: Dict = {}
        for axis in grid.axes:
            if axis.name == "vx":
                vx = axis.shaped
            elif axis.name == "vy":
                vy = axis.shaped
            else:
                params.update(self._axis_parameters(axis.name, axis.shaped))
        return np.asarray(self._budget_power_dbm(vx, vy, params))

    # ------------------------------------------------------------------ #
    # Public evaluation API (views over the engine)
    # ------------------------------------------------------------------ #
    def received_field(self, vx: float = 0.0, vy: float = 0.0) -> JonesVector:
        """Total complex field at the receive aperture."""
        return (self._direct_field() + self._surface_field(vx, vy) +
                self._clutter_field())

    def received_power_dbm(self, vx: float = 0.0, vy: float = 0.0) -> float:
        """Received power (dBm) after polarization projection.

        Scalar view of the grid engine (one 0-d operating point).
        """
        return float(self._budget_power_dbm(vx, vy, {}))

    def noise_power_dbm(self) -> float:
        """Receiver noise-plus-interference floor for the configured bandwidth."""
        config = self._configuration
        thermal = thermal_noise_dbm(config.bandwidth_hz,
                                    noise_figure_db=config.noise_figure_db)
        if config.interference_floor_dbm is None:
            return thermal
        return max(thermal, config.interference_floor_dbm)

    def evaluate(self, vx=0.0, vy: float = 0.0):
        """Evaluate a probe grid, or report one operating point.

        Called with a :class:`~repro.channel.grid.ProbeGrid` as the
        first argument, returns the received-power array of
        :meth:`evaluate_grid` (shape ``grid.shape``).  Called with
        scalar bias voltages, returns the full :class:`LinkReport` at
        that single (Vx, Vy) operating point.
        """
        if isinstance(vx, ProbeGrid):
            return self.evaluate_grid(vx)
        config = self._configuration
        engineered = self._direct_field() + self._surface_field(vx, vy)
        clutter = self._clutter_field()
        rx_power = self.received_power_dbm(vx, vy)
        noise = self.noise_power_dbm()
        snr = rx_power - noise
        efficiency = shannon_spectral_efficiency(10.0 ** (snr / 10.0))
        engineered_power = 10.0 * math.log10(max(
            engineered.intensity *
            config.rx_antenna.polarization_coupling(engineered), 1e-20))
        clutter_power = 10.0 * math.log10(max(
            clutter.intensity *
            config.rx_antenna.polarization_coupling(clutter), 1e-20))
        return LinkReport(
            received_power_dbm=rx_power,
            snr_db=snr,
            spectral_efficiency_bps_hz=float(efficiency),
            noise_power_dbm=noise,
            engineered_path_power_dbm=engineered_power,
            clutter_power_dbm=clutter_power,
        )

    def baseline(self) -> "WirelessLink":
        """The matching link with the metasurface removed."""
        return WirelessLink(self._configuration.without_surface())

    def power_gain_over_baseline_db(self, vx: float, vy: float) -> float:
        """Received-power improvement over the no-surface baseline (dB)."""
        return (self.received_power_dbm(vx, vy) -
                self.baseline().received_power_dbm())


__all__ = ["DeploymentMode", "LinkConfiguration", "LinkReport", "ProbeGrid",
           "SWEEP_AXES", "WirelessLink", "probe_evaluations"]
