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
:class:`WirelessLink` caches every voltage-independent quantity (the
direct field, the pattern-weighted clutter field) on first use.  The
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
from repro.channel.freespace import free_space_path_loss_db
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


def _rotated_jones(antenna: Antenna, angles_deg: np.ndarray) -> np.ndarray:
    """Jones vectors of ``antenna`` rotated to each of ``angles_deg``.

    The array form of ``antenna.rotated(angle).jones``, shaped
    ``angles_deg.shape + (2,)``.  Like :meth:`Antenna.rotated`, an angle
    *replaces* the configured orientation: the rotation applies to the
    base polarization, and an angle of exactly 0 returns that base
    vector unrotated (as :attr:`Antenna.effective_polarization` does).
    """
    angles_deg = np.asarray(angles_deg, dtype=float)
    base = antenna.polarization.jones
    theta = np.radians(angles_deg)
    cos, sin = np.cos(theta), np.sin(theta)
    rotated = np.stack([cos * base.x - sin * base.y,
                        sin * base.x + cos * base.y], axis=-1)
    amplitude = np.sqrt(np.abs(rotated[..., 0]) ** 2 +
                        np.abs(rotated[..., 1]) ** 2)
    rotated /= amplitude[..., None]
    return np.where((angles_deg == 0.0)[..., None],
                    np.array([base.x, base.y], dtype=complex), rotated)


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
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        if self.noise_figure_db < 0:
            raise ValueError("noise figure must be non-negative")
        if self.surface_obstruction_db < 0:
            raise ValueError("surface obstruction must be non-negative")
        if self.clutter_blocking_db < 0:
            raise ValueError("clutter blocking must be non-negative")
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


class WirelessLink:
    """Evaluates :class:`LinkConfiguration` instances.

    The link object is stateless apart from its (frozen) configuration
    and the caches derived from it, so the controller can probe
    arbitrary bias voltages cheaply and reproducibly.  The direct and
    clutter fields are voltage-independent and computed exactly once
    per link; every probe after the first only pays for the surface
    response.
    """

    def __init__(self, configuration: LinkConfiguration):
        self._configuration = configuration
        self._direct_field_cache: Optional[JonesVector] = None
        self._clutter_field_cache: Optional[JonesVector] = None
        self._clutter_unit_cache: Optional[np.ndarray] = None

    @property
    def configuration(self) -> LinkConfiguration:
        """The (frozen) link configuration under evaluation.

        Read-only: the cached voltage-independent fields are derived
        from it, so swapping configurations means building a new link
        (they are cheap to construct).
        """
        return self._configuration

    # ------------------------------------------------------------------ #
    # Field-level building blocks
    # ------------------------------------------------------------------ #
    def _path_amplitude(self, distance_m, extra_gain_db=0.0,
                        frequency_hz=None, tx_power_dbm=None):
        """Field amplitude (relative to 1 mW into an isotropic antenna)
        after free-space propagation over ``distance_m``.

        All arguments may be scalars or mutually broadcastable arrays;
        frequency and transmit power default to the configuration.
        """
        config = self._configuration
        frequency = (config.frequency_hz if frequency_hz is None
                     else frequency_hz)
        tx_power = (config.tx_power_dbm if tx_power_dbm is None
                    else tx_power_dbm)
        path_db = (tx_power + extra_gain_db -
                   free_space_path_loss_db(distance_m, frequency))
        return 10.0 ** (path_db / 20.0)

    def _phase_for_distance(self, distance_m, frequency_hz=None):
        """Carrier phase accumulated over a propagation distance."""
        config = self._configuration
        frequency = (config.frequency_hz if frequency_hz is None
                     else frequency_hz)
        wavelength = SPEED_OF_LIGHT / frequency
        return 2.0 * math.pi * distance_m / wavelength

    def _direct_field(self) -> JonesVector:
        """Field of the direct Tx->Rx path (cached: voltage-independent)."""
        if self._direct_field_cache is None:
            self._direct_field_cache = self._compute_direct_field()
        return self._direct_field_cache

    def _compute_direct_field(self) -> JonesVector:
        """The cached scalar view of :meth:`_direct_fields`."""
        fields = self._direct_fields()
        return JonesVector(complex(fields[0]), complex(fields[1]))

    def _direct_fields(self, frequency_hz=None, tx_power_dbm=None,
                       distance_m=None, tx_gain_dbi=None,
                       rx_gain_dbi=None, tx_jones=None) -> np.ndarray:
        """Field of the direct Tx->Rx path (no surface interaction).

        The single implementation of the direct-path budget: arguments
        may be ``None`` (use the configuration) or mutually
        broadcastable arrays; the result is a complex ``(..., 2)``
        array of Jones fields.

        Antenna aiming convention: in direct/transmissive layouts the
        endpoints face each other, so the direct path is on boresight;
        with ``aim_at_surface`` (the paper's reflective experiments) the
        antennas point at the surface position, so the direct path
        suffers each antenna's pattern roll-off at the angle between its
        peer and the surface — both with and without the surface present.
        """
        config = self._configuration
        geometry = config.geometry
        if config.deployment is DeploymentMode.TRANSMISSIVE:
            # In the transmissive layout the only Tx->Rx route crosses
            # the surface; there is no separate unobstructed direct path.
            return np.zeros(2, dtype=complex)
        blocked_db = (config.surface_obstruction_db
                      if (config.deployment is DeploymentMode.NONE and
                          config.surface_obstruction_db) else 0.0)
        if tx_gain_dbi is None:
            if config.aim_at_surface:
                tx_gain_dbi = config.tx_antenna.gain_dbi_towards(
                    geometry.angle_at_transmitter_deg())
                rx_gain_dbi = config.rx_antenna.gain_dbi_towards(
                    geometry.angle_at_receiver_deg())
            else:
                tx_gain_dbi = config.tx_antenna.gain_dbi
                rx_gain_dbi = config.rx_antenna.gain_dbi
        distance = (geometry.direct_distance_m if distance_m is None
                    else distance_m)
        amplitude = self._path_amplitude(
            distance, extra_gain_db=tx_gain_dbi + rx_gain_dbi - blocked_db,
            frequency_hz=frequency_hz, tx_power_dbm=tx_power_dbm)
        phase = self._phase_for_distance(distance, frequency_hz=frequency_hz)
        phasor = np.asarray(amplitude) * np.exp(1j * np.asarray(phase))
        if tx_jones is None:
            tx_jones = np.array([config.tx_antenna.jones.x,
                                 config.tx_antenna.jones.y], dtype=complex)
        return phasor[..., None] * tx_jones

    def _surface_field(self, vx: float, vy: float) -> JonesVector:
        """Scalar view of :meth:`_surface_fields_batch` at one bias pair."""
        fields = self._surface_fields_batch(vx, vy)
        return JonesVector(complex(fields[..., 0]), complex(fields[..., 1]))

    def _surface_fields_batch(self, vx, vy, frequency_hz=None,
                              tx_power_dbm=None,
                              via_distance_m=None,
                              tx_jones=None) -> np.ndarray:
        """Field of the path that interacts with the metasurface.

        The single implementation of the via-surface budget: ``vx`` /
        ``vy`` and the optional frequency, transmit-power,
        via-surface-distance and transmit-polarization overrides
        broadcast against each other; returns a complex ``(..., 2)``
        array of via-surface Jones fields, one per broadcast operating
        point.  ``tx_jones`` is an optional ``(..., 2)`` array of
        transmit Jones vectors (defaults to the configured antenna).

        The surface's Jones matrices (:meth:`_surface_jones`) depend
        only on (frequency, Vx, Vy) and are evaluated at the broadcast
        shape of those three alone: a bias lattice shared by many
        operating points (the controller hands it over as one ``(1, k)``
        row) costs one Jones batch of ``k`` elements, not one per cell.
        The path phasor is folded into the incident polarization
        (:meth:`_incident_fields`) before the contraction, so the
        full-size work is the contraction itself.
        """
        config = self._configuration
        shape = np.broadcast_shapes(
            np.shape(vx), np.shape(vy),
            np.shape(frequency_hz) if frequency_hz is not None else (),
            np.shape(tx_power_dbm) if tx_power_dbm is not None else (),
            np.shape(via_distance_m) if via_distance_m is not None else (),
            np.shape(tx_jones)[:-1] if tx_jones is not None else ())
        if config.metasurface is None or config.deployment is DeploymentMode.NONE:
            return np.zeros(shape + (2,), dtype=complex)
        jones = self._surface_jones(vx, vy, frequency_hz=frequency_hz)
        incident = self._incident_fields(
            frequency_hz=frequency_hz, tx_power_dbm=tx_power_dbm,
            via_distance_m=via_distance_m, tx_jones=tx_jones)
        # Contract the (..., 2, 2) Jones matrices against the (..., 2)
        # incident fields with full leading-dimension broadcasting
        # (written out: several times faster than a broadcast einsum).
        transformed = (jones[..., 0] * incident[..., None, 0] +
                       jones[..., 1] * incident[..., None, 1])
        return np.broadcast_to(transformed, shape + (2,))

    def _surface_jones(self, vx, vy, frequency_hz=None) -> np.ndarray:
        """The deployed surface's ``(..., 2, 2)`` Jones matrices.

        Transmission or reflection matrices per the deployment mode, at
        the broadcast shape of (frequency, Vx, Vy) — the bias half of
        every via-surface field.
        """
        config = self._configuration
        frequency = (config.frequency_hz if frequency_hz is None
                     else frequency_hz)
        if config.deployment is DeploymentMode.TRANSMISSIVE:
            return config.metasurface.jones_matrix_batch(frequency, vx, vy)
        return config.metasurface.reflection_jones_matrix_batch(
            frequency, vx, vy)

    def _incident_fields(self, frequency_hz=None, tx_power_dbm=None,
                         via_distance_m=None, tx_jones=None) -> np.ndarray:
        """Via-surface path phasor folded into the transmit polarization.

        The voltage-independent half of every via-surface field, a
        complex ``(..., 2)`` array at the broadcast shape of the
        overrides alone: the surface field is this vector transformed
        by :meth:`_surface_jones`.
        """
        config = self._configuration
        geometry = config.geometry
        legs = (geometry.tx_to_surface_m + geometry.surface_to_rx_m
                if via_distance_m is None else via_distance_m)
        # Antenna aiming convention (see _direct_fields): the surface
        # sits on boresight both in the transmissive layout (colinear)
        # and in the reflective layout (the endpoints are aimed at the
        # surface), so the via-surface path gets the full antenna gains.
        tx_gain = config.tx_antenna.gain_dbi
        rx_gain = config.rx_antenna.gain_dbi
        amplitude = self._path_amplitude(legs, extra_gain_db=tx_gain + rx_gain,
                                         frequency_hz=frequency_hz,
                                         tx_power_dbm=tx_power_dbm)
        phase = self._phase_for_distance(legs, frequency_hz=frequency_hz)
        if tx_jones is None:
            tx_jones = np.array([config.tx_antenna.jones.x,
                                 config.tx_antenna.jones.y], dtype=complex)
        phasor = np.asarray(amplitude) * np.exp(1j * np.asarray(phase))
        return phasor[..., None] * np.asarray(tx_jones, dtype=complex)

    def _clutter_unit(self) -> np.ndarray:
        """Pattern-weighted unit clutter field (cached complex ``(2,)``).

        The coherent reduction over the environment's stacked ray
        arrays, with each ray weighted by the receive antenna pattern at
        its arrival angle; the total clutter field is this unit vector
        times the (axis-dependent) direct-path reference amplitude.
        """
        if self._clutter_unit_cache is None:
            config = self._configuration
            arrays = config.environment.ray_arrays()
            if arrays.count == 0:
                self._clutter_unit_cache = np.zeros(2, dtype=complex)
            else:
                self._clutter_unit_cache = arrays.unit_field(
                    extra_gain_db=config.rx_antenna.pattern_gain_db(
                        arrays.arrival_angle_deg))
        return self._clutter_unit_cache

    def _clutter_blocking_db(self) -> float:
        """Clutter shadowing applied by a deployed transmissive surface."""
        config = self._configuration
        return (config.clutter_blocking_db
                if config.deployment is DeploymentMode.TRANSMISSIVE
                else 0.0)

    def _clutter_reference_amplitude(self, frequency_hz=None,
                                     tx_power_dbm=None,
                                     direct_distance_m=None):
        """Direct-path reference amplitude the clutter rays scale from."""
        config = self._configuration
        distance = (config.geometry.direct_distance_m
                    if direct_distance_m is None else direct_distance_m)
        return self._path_amplitude(
            distance,
            extra_gain_db=(config.tx_antenna.gain_dbi +
                           config.rx_antenna.gain_dbi -
                           self._clutter_blocking_db()),
            frequency_hz=frequency_hz, tx_power_dbm=tx_power_dbm)

    def _clutter_field(self) -> JonesVector:
        """Total clutter field weighted by the receive antenna pattern
        (cached: voltage-independent).

        When a transmissive surface is deployed it physically shadows
        part of the room, so the clutter is additionally attenuated by
        ``clutter_blocking_db``.
        """
        if self._clutter_field_cache is None:
            reference = self._clutter_reference_amplitude()
            unit = self._clutter_unit()
            self._clutter_field_cache = JonesVector(
                complex(reference * unit[0]), complex(reference * unit[1]))
        return self._clutter_field_cache

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
        config = self._configuration
        ex, ey = fields[..., 0], fields[..., 1]
        if rx_jones is None:
            jones_x = config.rx_antenna.jones.x
            jones_y = config.rx_antenna.jones.y
        else:
            jones_x, jones_y = rx_jones[..., 0], rx_jones[..., 1]
        intensity = ex.real ** 2 + ex.imag ** 2 + ey.real ** 2 + ey.imag ** 2
        projected = np.conj(jones_x) * ex + np.conj(jones_y) * ey
        return self._clamped_power_dbm(
            projected.real ** 2 + projected.imag ** 2, intensity)

    def _clamped_power_dbm(self, matched, intensity) -> np.ndarray:
        """The projection tail both budget paths end in (dBm).

        ``matched`` is the matched power ``|<rx|E>|²`` and ``intensity``
        the field's ``|E|²``.  ``matched`` is scratch: the clamps run in
        place on it.
        """
        floor = 10.0 ** (-self._configuration.rx_antenna.cross_pol_isolation_db
                         / 10.0)
        # |<rx|E>|^2 clamped into [floor, 1] x intensity: the matched
        # fraction never exceeds one nor falls below the cross-polar
        # isolation floor, and a zero field stays exactly zero.
        power = np.asarray(matched)
        np.maximum(power, floor * intensity, out=power)
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
        geometry = config.geometry
        if config.deployment is DeploymentMode.REFLECTIVE or config.aim_at_surface:
            return LinkGeometry.reflective(geometry.direct_distance_m,
                                           distance_m)
        fraction = geometry.tx_to_surface_m / geometry.direct_distance_m
        if not (0.0 < fraction < 1.0):
            # Degenerate/non-canonical layout: keep the surface midway,
            # which is where every canonical transmissive setup puts it.
            fraction = 0.5
        return LinkGeometry.transmissive(distance_m, surface_fraction=fraction)

    def _axis_parameters(self, axis: str, values: np.ndarray) -> Dict:
        """Per-point parameter arrays for one link-parameter grid axis.

        ``axis`` is one of :data:`~repro.channel.grid.SWEEP_AXES`
        (:class:`ProbeGrid` rejects any other name).  Returns overrides
        (each shaped like ``values``) consumed by the
        :meth:`_budget_power_dbm` engine; parameters not overridden stay
        at their configured scalar values.
        """
        config = self._configuration
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
            return {"rx_jones": _rotated_jones(config.rx_antenna, values)}
        return {"tx_jones": _rotated_jones(config.tx_antenna, values)}

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
        geometry = config.geometry
        values = np.asarray(values, dtype=float)
        if config.deployment is DeploymentMode.REFLECTIVE or config.aim_at_surface:
            # Endpoints fixed `separation` apart; the surface sits
            # `values` out on their perpendicular bisector.
            if not _positive_finite(values).all():
                raise ValueError("surface offset must be positive and finite")
            separation = geometry.direct_distance_m
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
        fraction = geometry.tx_to_surface_m / geometry.direct_distance_m
        if not (0.0 < fraction < 1.0):
            fraction = 0.5  # same fallback as _geometry_at_distance
        to_surface = values * fraction
        return {"direct_distance_m": values,
                "via_distance_m": to_surface + (values - to_surface)}

    def _budget_power_dbm(self, vx, vy, params: Dict) -> np.ndarray:
        """The one link-budget engine every public entry point views.

        ``vx`` / ``vy`` are bias-voltage scalars or arrays; ``params``
        carries the per-axis override arrays built by
        :meth:`_axis_parameters`.  Everything broadcasts against
        everything, so a single pass covers scalar probes, bias grids,
        single-axis sweeps and full N-D product grids alike.  The
        voltage-independent direct and clutter fields are reused from
        the link's caches whenever no axis overrides a parameter they
        depend on.

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
        vx = np.asarray(vx, dtype=float)
        vy = np.asarray(vy, dtype=float)
        frequency = params.get("frequency_hz")
        tx_power = params.get("tx_power_dbm")
        direct_distance = params.get("direct_distance_m")
        via_distance = params.get("via_distance_m")
        rx_jones = params.get("rx_jones")
        tx_jones = params.get("tx_jones")

        station_shapes = [np.shape(value)[:-1] if key in ("rx_jones",
                                                          "tx_jones")
                          else np.shape(value)
                          for key, value in params.items()]
        shape = np.broadcast_shapes(vx.shape, vy.shape, *station_shapes)

        # Direct and clutter fields are voltage-independent: reuse the
        # cached scalars unless an axis overrides a parameter they
        # depend on (any axis that does only pays for the dimensions it
        # actually spans — the overrides keep their own slot shapes).
        # The clutter field is additionally transmit-polarization
        # independent (the rays' polarizations come from the scattering
        # environment), so a tx_jones override alone keeps it cached.
        path_overridden = (frequency is not None or tx_power is not None or
                           direct_distance is not None)
        if (not path_overridden and tx_jones is None and
                "direct_tx_gain_dbi" not in params):
            direct_field = self._direct_field()
            direct = np.array([direct_field.x, direct_field.y], dtype=complex)
        else:
            direct = self._direct_fields(
                frequency_hz=frequency, tx_power_dbm=tx_power,
                distance_m=direct_distance,
                tx_gain_dbi=params.get("direct_tx_gain_dbi"),
                rx_gain_dbi=params.get("direct_rx_gain_dbi"),
                tx_jones=tx_jones)
        if not path_overridden:
            clutter_field = self._clutter_field()
            clutter = np.array([clutter_field.x, clutter_field.y],
                               dtype=complex)
        else:
            reference = self._clutter_reference_amplitude(
                frequency_hz=frequency, tx_power_dbm=tx_power,
                direct_distance_m=direct_distance)
            clutter = np.asarray(reference)[..., None] * self._clutter_unit()
        # The voltage-independent direct and clutter fields sum first,
        # at their own (small) shape.
        background = direct + clutter

        config = self._configuration
        layout = (_separable_layout(shape, (vx.shape, vy.shape),
                                    station_shapes)
                  if (params and frequency is None and rx_jones is None
                      and config.metasurface is not None
                      and config.deployment is not DeploymentMode.NONE)
                  else None)
        if layout is not None:
            incident = self._incident_fields(
                tx_power_dbm=tx_power, via_distance_m=via_distance,
                tx_jones=tx_jones)
            return self._separable_power_dbm(vx, vy, incident, background,
                                             shape, *layout)

        surface = self._surface_fields_batch(
            vx, vy, frequency_hz=frequency, tx_power_dbm=tx_power,
            via_distance_m=via_distance, tx_jones=tx_jones)
        # The surface field is the one full-size term, so the total
        # costs a single full-size add.
        fields = np.broadcast_to(surface + background, shape + (2,))
        return self._project_power_dbm(fields, rx_jones=rx_jones)

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
        rx = self._configuration.rx_antenna.jones
        # Rows conj(r) and conj(r⊥), with r⊥ = (-conj(r_y), conj(r_x)).
        basis = np.array([[rx.x.conjugate(), rx.y.conjugate()],
                          [-rx.y, rx.x]], dtype=complex)
        jones = self._surface_jones(vx, vy).reshape(-1, 2, 2)
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
