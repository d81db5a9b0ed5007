"""Ray-based multipath model (paper Sec. 5.1.2, "Impact of multipath").

The paper runs two classes of experiments: a "clean" chamber covered in
absorbing material (essentially free-space plus the engineered paths)
and an ordinary laboratory with rich multipath.  In the laboratory the
metasurface stops helping omni-directional links below ~2 mW of transmit
power because environmental reflections dominate the weak engineered
path, while directional antennas are largely immune.

We model the clutter as a set of discrete rays, each with a delay-driven
phase, a power level relative to the direct path (a Rician-style K
factor), a random polarization, and an arrival direction.  Directional
receive antennas attenuate off-boresight rays through their pattern,
which is precisely why they are robust in the paper's measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.jones import JonesVector


@dataclass(frozen=True)
class Ray:
    """A single environmental multipath component.

    Attributes
    ----------
    relative_power_db:
        Ray power relative to the direct (unobstructed, co-polarized)
        path at the same endpoints, in dB (normally negative).
    phase_rad:
        Carrier phase of the ray on arrival.
    polarization_angle_deg:
        Linear polarization angle of the arriving ray; scattering
        depolarises the wave so this is random in the environment model.
    arrival_angle_deg:
        Azimuthal angle of arrival relative to the receiver boresight.
    excess_delay_ns:
        Excess propagation delay versus the direct path (bookkeeping for
        wideband extensions; the narrowband model uses only the phase).
    """

    relative_power_db: float
    phase_rad: float
    polarization_angle_deg: float
    arrival_angle_deg: float
    excess_delay_ns: float = 0.0

    def field_contribution(self, reference_amplitude: float) -> JonesVector:
        """Complex field contributed by this ray at the receive aperture.

        ``reference_amplitude`` is the field amplitude the *direct* path
        would have produced; the ray scales it by its relative power.
        """
        amplitude = reference_amplitude * 10.0 ** (self.relative_power_db / 20.0)
        phasor = amplitude * complex(math.cos(self.phase_rad),
                                     math.sin(self.phase_rad))
        angle = math.radians(self.polarization_angle_deg)
        return JonesVector(phasor * math.cos(angle), phasor * math.sin(angle))


@dataclass(frozen=True)
class RayArrays:
    """The environment's rays stacked into parallel NumPy arrays.

    This is the vectorized view the link budget consumes: one array per
    :class:`Ray` attribute, aligned by ray index, so the whole clutter
    summation collapses to a NumPy reduction instead of a per-ray
    Python loop.
    """

    relative_power_db: np.ndarray
    phase_rad: np.ndarray
    polarization_angle_deg: np.ndarray
    arrival_angle_deg: np.ndarray
    excess_delay_ns: np.ndarray

    @property
    def count(self) -> int:
        """Number of stacked rays."""
        return int(self.relative_power_db.size)

    def unit_field(self, extra_gain_db=None) -> np.ndarray:
        """Coherent per-unit-reference clutter field, a complex ``(2,)``.

        The total clutter field for a direct-path reference amplitude
        ``A`` is ``A * unit_field()``, i.e. the reduction
        ``sum_r 10^((p_r + g_r)/20) e^{j phi_r} (cos a_r, sin a_r)``
        where ``g_r`` is the optional per-ray ``extra_gain_db`` array
        (e.g. receive-pattern weights at each arrival angle; zero when
        omitted).
        """
        power_db = self.relative_power_db
        if extra_gain_db is not None:
            power_db = power_db + extra_gain_db
        amplitudes = 10.0 ** (power_db / 20.0)
        phasors = amplitudes * np.exp(1j * self.phase_rad)
        angles = np.radians(self.polarization_angle_deg)
        return np.array([np.sum(phasors * np.cos(angles)),
                         np.sum(phasors * np.sin(angles))], dtype=complex)


@dataclass
class MultipathEnvironment:
    """A reproducible clutter environment.

    Attributes
    ----------
    absorber_enabled:
        When True the chamber is covered with absorbing material (paper's
        controlled setup) and clutter is suppressed by
        ``absorber_attenuation_db``.
    rician_k_db:
        Ratio of direct-path power to total clutter power in an
        *unabsorbed* room.  Typical indoor labs are 3-8 dB.
    ray_count:
        Number of discrete clutter rays.
    absorber_attenuation_db:
        Additional attenuation applied to every ray when the absorber is
        on.
    seed:
        Seed for the internal random generator; environments are
        deterministic given a seed, which the experiment harness relies
        on for reproducibility.
    """

    absorber_enabled: bool = True
    rician_k_db: float = 5.0
    ray_count: int = 8
    absorber_attenuation_db: float = 40.0
    seed: int = 2021

    def __post_init__(self) -> None:
        if self.ray_count < 0:
            raise ValueError("ray count must be non-negative")
        if self.absorber_attenuation_db < 0:
            raise ValueError("absorber attenuation must be non-negative")
        self._rng = np.random.default_rng(self.seed)
        self._rays: Optional[List[Ray]] = None
        self._ray_arrays: Optional[RayArrays] = None

    # ------------------------------------------------------------------ #
    # Factories
    # ------------------------------------------------------------------ #
    @staticmethod
    def anechoic(seed: int = 2021) -> "MultipathEnvironment":
        """The absorber-covered chamber used for controlled experiments."""
        return MultipathEnvironment(absorber_enabled=True, seed=seed)

    @staticmethod
    def laboratory(seed: int = 2021,
                   rician_k_db: float = 4.0) -> "MultipathEnvironment":
        """An ordinary laboratory with rich multipath (absorber removed)."""
        return MultipathEnvironment(absorber_enabled=False,
                                    rician_k_db=rician_k_db,
                                    ray_count=12,
                                    seed=seed)

    @staticmethod
    def indoor(seed: int = 2021) -> "MultipathEnvironment":
        """A home or office: moderate clutter (K ~ 10 dB), clearly less
        reflective than the paper's instrument-packed laboratory."""
        return MultipathEnvironment(absorber_enabled=False,
                                    rician_k_db=10.0,
                                    ray_count=12,
                                    seed=seed)

    # ------------------------------------------------------------------ #
    # Ray generation
    # ------------------------------------------------------------------ #
    def rays(self) -> List[Ray]:
        """The clutter rays of this environment (generated once, cached)."""
        if self._rays is None:
            self._rays = self._generate_rays()
        return list(self._rays)

    def ray_arrays(self) -> RayArrays:
        """The rays stacked into parallel arrays (generated once, cached).

        Safe to cache indefinitely: the ray set is generated exactly
        once per environment and never mutated afterwards.
        """
        if self._ray_arrays is None:
            rays = self.rays()
            self._ray_arrays = RayArrays(
                relative_power_db=np.array(
                    [ray.relative_power_db for ray in rays], dtype=float),
                phase_rad=np.array(
                    [ray.phase_rad for ray in rays], dtype=float),
                polarization_angle_deg=np.array(
                    [ray.polarization_angle_deg for ray in rays], dtype=float),
                arrival_angle_deg=np.array(
                    [ray.arrival_angle_deg for ray in rays], dtype=float),
                excess_delay_ns=np.array(
                    [ray.excess_delay_ns for ray in rays], dtype=float),
            )
        return self._ray_arrays

    def _generate_rays(self) -> List[Ray]:
        if self.ray_count == 0:
            return []
        # Split the total clutter power (set by the K factor) across rays
        # with an exponentially decaying profile, as in standard indoor
        # channel models.
        total_clutter_linear = 10.0 ** (-self.rician_k_db / 10.0)
        weights = np.exp(-0.35 * np.arange(self.ray_count))
        weights = weights / weights.sum()
        powers_linear = total_clutter_linear * weights
        rays = []
        for power in powers_linear:
            relative_power_db = 10.0 * math.log10(power)
            if self.absorber_enabled:
                relative_power_db -= self.absorber_attenuation_db
            rays.append(Ray(
                relative_power_db=relative_power_db,
                phase_rad=float(self._rng.uniform(0.0, 2.0 * math.pi)),
                polarization_angle_deg=float(self._rng.uniform(0.0, 180.0)),
                arrival_angle_deg=float(self._rng.uniform(-180.0, 180.0)),
                excess_delay_ns=float(self._rng.uniform(5.0, 120.0)),
            ))
        return rays

    # ------------------------------------------------------------------ #
    # Aggregate quantities
    # ------------------------------------------------------------------ #
    def clutter_field(self, reference_amplitude: float) -> JonesVector:
        """Total clutter field given the direct-path reference amplitude.

        Evaluated as one NumPy reduction over the stacked ray arrays
        rather than a per-ray Python loop.
        """
        arrays = self.ray_arrays()
        if arrays.count == 0:
            return JonesVector(0.0, 0.0)
        unit = arrays.unit_field()
        return JonesVector(complex(reference_amplitude * unit[0]),
                           complex(reference_amplitude * unit[1]))

    def clutter_power_fraction(self) -> float:
        """Total clutter power relative to the direct path (linear)."""
        arrays = self.ray_arrays()
        if arrays.count == 0:
            return 0.0
        return float(np.sum(10.0 ** (arrays.relative_power_db / 10.0)))

    def with_absorber(self, enabled: bool) -> "MultipathEnvironment":
        """Return a copy of the environment with the absorber toggled."""
        return MultipathEnvironment(
            absorber_enabled=enabled,
            rician_k_db=self.rician_k_db,
            ray_count=self.ray_count,
            absorber_attenuation_db=self.absorber_attenuation_db,
            seed=self.seed,
        )


__all__ = ["Ray", "RayArrays", "MultipathEnvironment"]
