"""Free-space propagation: Friis transmission equation and path loss.

The paper uses the Friis equation [14] to translate its measured
15 dBm transmissive power gain into a potential 5.6x communication-range
extension (Sec. 5.1.1); these helpers provide exactly that arithmetic
plus the standard link-budget pieces used by :mod:`repro.channel.link`.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.units import positive_frequency

ArrayLike = Union[float, np.ndarray]


def free_space_path_loss_db(distance_m: ArrayLike,
                            frequency_hz: ArrayLike) -> ArrayLike:
    """Free-space path loss (dB) between isotropic antennas.

    ``FSPL = 20 log10(4 pi d f / c)``.  Distances below one centimetre
    are clamped to avoid the unphysical near-field singularity.  Both
    arguments may be scalars or mutually broadcastable arrays, so a
    whole frequency or distance sweep evaluates in one pass.  A
    frequency that is not positive and finite raises ``ValueError``.
    """
    positive_frequency(frequency_hz)
    return unchecked_path_loss_db(distance_m, frequency_hz)


def unchecked_path_loss_db(distance_m: ArrayLike,
                           frequency_hz: ArrayLike) -> ArrayLike:
    """:func:`free_space_path_loss_db` without the frequency check, for
    internals whose frequencies were validated at their boundary."""
    distance = np.maximum(np.asarray(distance_m, dtype=float), 0.01)
    value = 20.0 * np.log10(4.0 * math.pi * distance * frequency_hz /
                            SPEED_OF_LIGHT)
    if np.isscalar(distance_m) and np.isscalar(frequency_hz):
        return float(value)
    return value


def friis_received_power_dbm(tx_power_dbm: ArrayLike,
                             tx_gain_dbi: float,
                             rx_gain_dbi: float,
                             distance_m: ArrayLike,
                             frequency_hz: ArrayLike,
                             extra_loss_db: float = 0.0) -> ArrayLike:
    """Received power (dBm) from the Friis transmission equation.

    ``Pr = Pt + Gt + Gr - FSPL - extra_loss``.  Transmit power,
    distance and frequency may be scalars or broadcastable arrays.
    """
    if extra_loss_db < 0:
        raise ValueError("extra loss must be non-negative; use gains for gain")
    fspl = free_space_path_loss_db(distance_m, frequency_hz)
    return tx_power_dbm + tx_gain_dbi + rx_gain_dbi - fspl - extra_loss_db


def range_extension_factor(power_gain_db: float) -> float:
    """Communication-range multiplier implied by a link-power gain.

    Free-space power decays as ``1/d^2``, so a ``G`` dB power gain buys a
    distance factor of ``10^(G/20)``.  The paper's 15 dBm gain maps to
    ``10^(15/20) = 5.6x`` (Sec. 5.1.1).
    """
    return float(10.0 ** (power_gain_db / 20.0))


def distance_for_received_power_m(target_rx_power_dbm: float,
                                  tx_power_dbm: float,
                                  tx_gain_dbi: float,
                                  rx_gain_dbi: float,
                                  frequency_hz: float) -> float:
    """Distance at which the Friis equation yields a target receive power."""
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    budget_db = (tx_power_dbm + tx_gain_dbi + rx_gain_dbi -
                 target_rx_power_dbm)
    wavelength = SPEED_OF_LIGHT / frequency_hz
    return float(wavelength / (4.0 * math.pi) * 10.0 ** (budget_db / 20.0))


__all__ = [
    "free_space_path_loss_db",
    "friis_received_power_dbm",
    "range_extension_factor",
    "distance_for_received_power_m",
]
