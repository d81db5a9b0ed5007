"""Complex-baseband signal container and waveform generation.

The paper's transmitter "continuously sends a cosine signal over
500 KHz, while the sampling rate of the receiver is 1 MHz" (Sec. 4).
:class:`BasebandSignal` is a thin, validated wrapper around a complex
sample array with its sample rate, plus the handful of operations the
measurement pipeline needs (power, scaling, slicing, noise addition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.units import db_to_amplitude, dbm_to_milliwatts, milliwatts_to_dbm


@dataclass(frozen=True)
class BasebandSignal:
    """A complex baseband sample stream.

    Attributes
    ----------
    samples:
        Complex samples; the amplitude convention is such that
        ``mean(|x|^2)`` is the signal power in milliwatts.
    sample_rate_hz:
        Sampling rate.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim != 1:
            raise ValueError("samples must be a 1-D array")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")
        object.__setattr__(self, "samples", samples)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        """Signal duration in seconds."""
        return self.samples.size / self.sample_rate_hz

    @property
    def timestamps_s(self) -> np.ndarray:
        """Per-sample timestamps starting at zero."""
        return np.arange(self.samples.size) / self.sample_rate_hz

    def power_mw(self) -> float:
        """Mean signal power in milliwatts."""
        if self.samples.size == 0:
            return 0.0
        return float(np.mean(np.abs(self.samples) ** 2))

    def power_dbm(self) -> float:
        """Mean signal power in dBm."""
        return float(milliwatts_to_dbm(self.power_mw()))

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def scaled_to_power_dbm(self, target_power_dbm: float) -> "BasebandSignal":
        """Return a copy rescaled to a target mean power."""
        current = self.power_mw()
        if current <= 0:
            raise ValueError("cannot rescale a zero-power signal")
        target_mw = float(dbm_to_milliwatts(target_power_dbm))
        factor = math.sqrt(target_mw / current)
        return BasebandSignal(self.samples * factor, self.sample_rate_hz)

    def attenuated_db(self, loss_db: float) -> "BasebandSignal":
        """Return a copy attenuated by ``loss_db`` (negative values amplify)."""
        factor = float(db_to_amplitude(-loss_db))
        return BasebandSignal(self.samples * factor, self.sample_rate_hz)

    def with_noise(self, noise_power_dbm: float,
                   rng: Optional[np.random.Generator] = None) -> "BasebandSignal":
        """Return a copy with complex AWGN of the given power added."""
        rng = rng if rng is not None else np.random.default_rng(0)
        noise_mw = float(dbm_to_milliwatts(noise_power_dbm))
        scale = math.sqrt(noise_mw / 2.0)
        noise = (rng.normal(0.0, scale, self.samples.size) +
                 1j * rng.normal(0.0, scale, self.samples.size))
        return BasebandSignal(self.samples + noise, self.sample_rate_hz)

    def segment(self, start_s: float, duration_s: float) -> "BasebandSignal":
        """Extract a time slice of the signal."""
        if start_s < 0 or duration_s <= 0:
            raise ValueError("start must be >= 0 and duration > 0")
        start = int(round(start_s * self.sample_rate_hz))
        count = int(round(duration_s * self.sample_rate_hz))
        if start >= self.samples.size:
            raise ValueError("segment starts beyond the end of the signal")
        return BasebandSignal(self.samples[start:start + count],
                              self.sample_rate_hz)


def _check_positive_finite(name: str, value: float) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``0 < value < inf``."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite")


def _sample_count(frequency_hz: float, sample_rate_hz: float,
                  duration_s: float) -> int:
    """Samples in a tone capture, after checking the capture is valid.

    Every path that sizes a capture (:func:`cosine_tone`, the
    receiver's scalar, series and grid captures, and the noisy-receiver
    backend's constructor) validates through here, so they all reject
    the same inputs with the same errors.
    """
    _check_positive_finite("tone frequency", frequency_hz)
    _check_positive_finite("sample rate", sample_rate_hz)
    _check_positive_finite("duration", duration_s)
    # The signal is complex baseband, so the unambiguous band is
    # [-fs/2, +fs/2]; the paper's 500 kHz tone at 1 MS/s sits exactly on
    # that edge and is still representable.
    if frequency_hz > sample_rate_hz / 2.0:
        raise ValueError("tone frequency must respect the Nyquist limit")
    count = int(round(duration_s * sample_rate_hz))
    if count == 0:
        raise ValueError("duration must span at least one sample")
    return count


def cosine_tone(frequency_hz: float = 500e3,
                sample_rate_hz: float = 1e6,
                duration_s: float = 0.01,
                power_dbm: float = 0.0,
                phase_rad: float = 0.0) -> BasebandSignal:
    """The paper's continuously transmitted cosine tone.

    Parameters mirror the experimental setup of Sec. 4: a 500 kHz tone
    observed at a 1 MHz sampling rate.
    """
    count = _sample_count(frequency_hz, sample_rate_hz, duration_s)
    timestamps = np.arange(count) / sample_rate_hz
    amplitude = math.sqrt(float(dbm_to_milliwatts(power_dbm)))
    samples = amplitude * np.exp(
        1j * (2.0 * math.pi * frequency_hz * timestamps + phase_rad))
    return BasebandSignal(samples, sample_rate_hz)


__all__ = ["BasebandSignal", "cosine_tone"]
