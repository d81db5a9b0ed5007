"""Unit conversion helpers used throughout the LLAMA reproduction.

The paper mixes logarithmic (dB, dBm, dBi) and linear (mW, W, unit-less
power ratios) quantities freely.  Centralising the conversions here keeps
the physics modules free of ad-hoc ``10 * log10`` expressions and gives a
single place to handle numerical edge cases (zero or negative power,
array inputs, floors for cross-polarization isolation, ...).

All functions accept scalars or NumPy arrays and return a float64 array
of the same shape (0-d for scalar inputs, so ``float(...)`` recovers a
plain scalar).  This module is the one place inline ``10 ** (x / 10)``
expressions are allowed — the RPR001 lint rule polices everyone else.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

ArrayLike = Union[float, int, FloatArray]

#: Smallest linear power ratio we ever report, to keep logarithms finite.
#: Corresponds to -200 dB, far below any physically meaningful floor.
MIN_LINEAR_POWER = 1e-20


def _as_array(value: ArrayLike) -> FloatArray:
    """Return ``value`` as a float ndarray (0-d for scalars)."""
    result: FloatArray = np.asarray(value, dtype=np.float64)
    return result


def db_to_linear(value_db: ArrayLike) -> FloatArray:
    """Convert a power ratio in dB to a linear ratio.

    >>> db_to_linear(3.0103)
    2.0000...
    """
    result: FloatArray = np.power(10.0, _as_array(value_db) / 10.0)
    return result


def linear_to_db(ratio: ArrayLike) -> FloatArray:
    """Convert a linear power ratio to dB.

    Ratios at or below zero are clamped to :data:`MIN_LINEAR_POWER` so the
    result stays finite (useful when a simulated receiver measures an
    essentially zero cross-polarized component).
    """
    clamped: FloatArray = np.maximum(_as_array(ratio), MIN_LINEAR_POWER)
    result: FloatArray = 10.0 * np.log10(clamped)
    return result


def dbm_to_watts(power_dbm: ArrayLike) -> FloatArray:
    """Convert power in dBm to Watts."""
    result: FloatArray = np.power(10.0, (_as_array(power_dbm) - 30.0) / 10.0)
    return result


def watts_to_dbm(power_watts: ArrayLike) -> FloatArray:
    """Convert power in Watts to dBm.

    Non-positive powers are clamped so the logarithm stays finite.  Note
    the clamp floor is :data:`MIN_LINEAR_POWER` *Watts* (-170 dBm): for
    quantities that may fall below it (thermal noise in small
    bandwidths), convert to milliwatts first and use
    :func:`milliwatts_to_dbm`.
    """
    clamped: FloatArray = np.maximum(_as_array(power_watts), MIN_LINEAR_POWER)
    result: FloatArray = 10.0 * np.log10(clamped) + 30.0
    return result


def dbm_to_milliwatts(power_dbm: ArrayLike) -> FloatArray:
    """Convert power in dBm to milliwatts."""
    result: FloatArray = np.power(10.0, _as_array(power_dbm) / 10.0)
    return result


def milliwatts_to_dbm(power_mw: ArrayLike) -> FloatArray:
    """Convert power in milliwatts to dBm."""
    clamped: FloatArray = np.maximum(_as_array(power_mw), MIN_LINEAR_POWER)
    result: FloatArray = 10.0 * np.log10(clamped)
    return result


def amplitude_to_db(amplitude_ratio: ArrayLike) -> FloatArray:
    """Convert a linear field/voltage amplitude ratio to dB (20 log10)."""
    clamped: FloatArray = np.maximum(np.abs(_as_array(amplitude_ratio)),
                                     math.sqrt(MIN_LINEAR_POWER))
    result: FloatArray = 20.0 * np.log10(clamped)
    return result


def db_to_amplitude(value_db: ArrayLike) -> FloatArray:
    """Convert dB to a linear field/voltage amplitude ratio."""
    result: FloatArray = np.power(10.0, _as_array(value_db) / 20.0)
    return result


def degrees_to_radians(angle_deg: ArrayLike) -> FloatArray:
    """Convert degrees to radians."""
    result: FloatArray = np.deg2rad(_as_array(angle_deg))
    return result


def radians_to_degrees(angle_rad: ArrayLike) -> FloatArray:
    """Convert radians to degrees."""
    result: FloatArray = np.rad2deg(_as_array(angle_rad))
    return result


def wrap_angle_degrees(angle_deg: ArrayLike) -> FloatArray:
    """Wrap an angle to the interval [0, 360) degrees."""
    result: FloatArray = np.mod(_as_array(angle_deg), 360.0)
    return result


def wrap_angle_180(angle_deg: ArrayLike) -> FloatArray:
    """Wrap an angle to the interval [-180, 180) degrees."""
    result: FloatArray = np.mod(_as_array(angle_deg) + 180.0, 360.0) - 180.0
    return result


def polarization_angle_difference(angle_a_deg: ArrayLike,
                                  angle_b_deg: ArrayLike) -> FloatArray:
    """Smallest difference between two *polarization* orientations.

    Linear polarization orientations are unoriented lines, so 0° and 180°
    describe the same state.  The result lies in [0, 90] degrees.
    """
    diff: FloatArray = np.abs(
        wrap_angle_180(_as_array(angle_a_deg) - _as_array(angle_b_deg)))
    folded: FloatArray = np.where(diff > 90.0, 180.0 - diff, diff)
    return folded


def positive_frequency(frequency_hz: ArrayLike) -> FloatArray:
    """``frequency_hz`` as a float array, rejecting any element that is
    not positive and finite (NaN and +inf included).

    The one frequency check of the free-space and metasurface batch
    paths: each public entry point runs it once and hands the array to
    its unchecked internals.
    """
    frequencies: FloatArray = _as_array(frequency_hz)
    if not ((frequencies > 0) & (frequencies < math.inf)).all():
        raise ValueError("frequency must be positive"
                         if (frequencies <= 0).any()
                         else "frequency must be positive and finite")
    return frequencies


def frequency_to_wavelength(frequency_hz: ArrayLike,
                            speed_of_light: float = 299_792_458.0
                            ) -> FloatArray:
    """Free-space wavelength (metres) for a frequency in Hz."""
    frequencies: FloatArray = _as_array(frequency_hz)
    if np.any(frequencies <= 0):
        raise ValueError("frequency must be positive")
    result: FloatArray = speed_of_light / frequencies
    return result


def wavelength_to_frequency(wavelength_m: ArrayLike,
                            speed_of_light: float = 299_792_458.0
                            ) -> FloatArray:
    """Frequency (Hz) for a free-space wavelength in metres."""
    wavelengths: FloatArray = _as_array(wavelength_m)
    if np.any(wavelengths <= 0):
        raise ValueError("wavelength must be positive")
    result: FloatArray = speed_of_light / wavelengths
    return result


__all__ = [
    "ArrayLike",
    "FloatArray",
    "MIN_LINEAR_POWER",
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
    "watts_to_dbm",
    "dbm_to_milliwatts",
    "milliwatts_to_dbm",
    "amplitude_to_db",
    "db_to_amplitude",
    "degrees_to_radians",
    "radians_to_degrees",
    "wrap_angle_degrees",
    "wrap_angle_180",
    "polarization_angle_difference",
    "positive_frequency",
    "frequency_to_wavelength",
    "wavelength_to_frequency",
]
