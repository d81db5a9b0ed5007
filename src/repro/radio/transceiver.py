"""Simulated SDR transmitter and receiver (USRP N210 stand-in).

In the paper the USRP only plays two roles: it radiates a continuous
tone at a configurable power/frequency, and it acts as a calibrated
power meter whose sample stream the controller averages.  The simulated
transceiver reproduces exactly those roles against the
:class:`~repro.channel.link.WirelessLink` channel model, including the
receiver noise floor, so the controller sees realistic (noisy) power
reports rather than exact link-budget numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.channel.grid import ProbeGrid
from repro.channel.link import WirelessLink
from repro.radio.signal import (
    BasebandSignal,
    _check_positive_finite,
    _sample_count,
    cosine_tone,
)
from repro.units import db_to_amplitude, dbm_to_milliwatts, milliwatts_to_dbm

# Captures whose noise one generator call draws in a power series.  The
# series is fast because it hoists the budget pass and the clean tone;
# wider blocks only raise peak memory.
_NOISE_BLOCK = 4
# The paper's baseband tone (Sec. 4), which power reports sample.
_TONE_FREQUENCY_HZ = 500e3


@dataclass(frozen=True)
class SimulatedTransmitter:
    """A tone transmitter with configurable power and frequency.

    Attributes
    ----------
    tx_power_dbm:
        Transmit power fed to the antenna port.
    tone_frequency_hz:
        Baseband tone frequency (paper: 500 kHz).
    sample_rate_hz:
        DAC/ADC sample rate (paper: 1 MHz).
    """

    tx_power_dbm: float = 0.0
    tone_frequency_hz: float = 500e3
    sample_rate_hz: float = 1e6

    def __post_init__(self) -> None:
        _check_positive_finite("tone frequency", self.tone_frequency_hz)
        _check_positive_finite("sample rate", self.sample_rate_hz)

    def transmit(self, duration_s: float = 0.01) -> BasebandSignal:
        """Generate the transmitted baseband waveform."""
        return cosine_tone(frequency_hz=self.tone_frequency_hz,
                           sample_rate_hz=self.sample_rate_hz,
                           duration_s=duration_s,
                           power_dbm=self.tx_power_dbm)


@dataclass(frozen=True)
class ReceivedCapture:
    """A received sample capture plus its summary statistics."""

    signal: BasebandSignal
    mean_power_dbm: float
    true_power_dbm: float
    noise_power_dbm: float

    @property
    def snr_db(self) -> float:
        """Estimated SNR of the capture."""
        return self.mean_power_dbm - self.noise_power_dbm


class SimulatedReceiver:
    """A sampling receiver attached to a :class:`WirelessLink`.

    Every power report comes from one sampling kernel,
    :meth:`measure_power_dbm_series`: one budget pass and one clean tone
    per series, then noise drawn from the receiver's generator capture
    by capture.  The series is bit-identical to a loop of per-capture
    reports and leaves the generator in the same state, so
    :meth:`measure_power_dbm` (its one-capture view) and
    :meth:`measure_average_dbm` (its chunk average) replay exactly.

    Parameters
    ----------
    link:
        The channel model whose output the receiver samples.
    sample_rate_hz:
        ADC sample rate (paper: 1 MHz).
    seed:
        Seed of the receiver's thermal-noise generator; captures are
        reproducible given the seed.
    """

    def __init__(self, link: WirelessLink, sample_rate_hz: float = 1e6,
                 seed: int = 7):
        _check_positive_finite("sample rate", sample_rate_hz)
        self.link = link
        self.sample_rate_hz = sample_rate_hz
        self._rng = np.random.default_rng(seed)

    def capture(self, duration_s: float = 0.01, vx: float = 0.0,
                vy: float = 0.0,
                tone_frequency_hz: float = 500e3) -> ReceivedCapture:
        """Capture a noisy sample stream at one bias operating point.

        The signal-level view of one capture; power reports come from
        :meth:`measure_power_dbm_series`, which draws the same noise.
        """
        _sample_count(tone_frequency_hz, self.sample_rate_hz, duration_s)
        true_power_dbm = self.link.received_power_dbm(vx, vy)
        noise_power_dbm = self.link.noise_power_dbm()
        clean = cosine_tone(frequency_hz=tone_frequency_hz,
                            sample_rate_hz=self.sample_rate_hz,
                            duration_s=duration_s,
                            power_dbm=true_power_dbm)
        noisy = clean.with_noise(noise_power_dbm, rng=self._rng)
        return ReceivedCapture(
            signal=noisy,
            mean_power_dbm=noisy.power_dbm(),
            true_power_dbm=true_power_dbm,
            noise_power_dbm=noise_power_dbm,
        )

    def measure_power_dbm(self, vx: float = 0.0, vy: float = 0.0,
                          duration_s: float = 0.005) -> float:
        """One averaged power report, as the controller consumes them.

        The one-capture view of :meth:`measure_power_dbm_series`.
        """
        return float(self.measure_power_dbm_series(1, vx=vx, vy=vy,
                                                   duration_s=duration_s)[0])

    def measure_power_dbm_series(self, count: int, vx: float = 0.0,
                                 vy: float = 0.0,
                                 duration_s: float = 0.005) -> np.ndarray:
        """``count`` successive power reports at one bias operating point.

        Returns a ``(count,)`` array bit-identical to ``count`` successive
        :meth:`measure_power_dbm` calls on this receiver, and leaves the
        generator in the state those calls would.  The series runs one
        budget pass and builds one clean tone; each capture then draws
        its real and then its imaginary noise samples, as the
        per-capture loop does, a few captures per generator call.
        """
        if count < 0:
            raise ValueError("capture count must be non-negative")
        length = _sample_count(_TONE_FREQUENCY_HZ, self.sample_rate_hz,
                               duration_s)
        if count == 0:
            return np.empty(0)
        clean = cosine_tone(frequency_hz=_TONE_FREQUENCY_HZ,
                            sample_rate_hz=self.sample_rate_hz,
                            duration_s=duration_s,
                            power_dbm=self.link.received_power_dbm(vx, vy))
        noise_mw = float(dbm_to_milliwatts(self.link.noise_power_dbm()))
        scale = math.sqrt(noise_mw / 2.0)
        powers_mw = np.empty(count)
        for start in range(0, count, _NOISE_BLOCK):
            block = min(_NOISE_BLOCK, count - start)
            noise = self._rng.normal(0.0, scale, (block, 2, length))
            noisy = clean.samples + (noise[:, 0] + 1j * noise[:, 1])
            powers_mw[start:start + block] = np.mean(np.abs(noisy) ** 2,
                                                     axis=-1)
        return milliwatts_to_dbm(powers_mw)

    def measure_power_dbm_grid(self, grid: ProbeGrid,
                               duration_s: float = 0.005,
                               tone_frequency_hz: float = 500e3) -> np.ndarray:
        """Batched noisy power reports over an at-most-2-D probe grid.

        Rows of the grid are independent axis points; columns are
        sequential probes (a 1-D grid is treated as axis points sharing
        one probe).  The true powers come from one
        :meth:`~repro.channel.link.WirelessLink.evaluate` pass over
        ``grid``.  One noise realisation is drawn from this receiver's
        generator per probe column and shared across rows — exactly the
        sample streams a Python loop of per-point receivers constructed
        with the same seed would observe, so the batch reproduces the
        scalar :meth:`measure_power_dbm` loop's reports to
        floating-point round-off, and the returned array has
        ``grid.shape``.  The capture itself is evaluated in closed form:
        for a unit tone ``u`` and noise block ``n``, the mean power of
        ``a u + n`` is
        ``a^2 mean|u|^2 + 2 a mean(Re(u conj(n))) + mean|n|^2``,
        so only three reductions per probe column are needed regardless
        of how many axis points share it.
        """
        count = _sample_count(tone_frequency_hz, self.sample_rate_hz,
                              duration_s)
        if grid.ndim > 2:
            raise ValueError("receiver probe grids must be at most 2-D "
                             "(axis points, probes)")
        raw = np.asarray(self.link.evaluate(grid), dtype=float)
        true_powers = raw.reshape(-1, 1) if raw.ndim <= 1 else raw
        noise_power_dbm = self.link.noise_power_dbm()
        tone = cosine_tone(frequency_hz=tone_frequency_hz,
                           sample_rate_hz=self.sample_rate_hz,
                           duration_s=duration_s).samples
        tone_power = np.mean(np.abs(tone) ** 2)
        noise_mw = float(dbm_to_milliwatts(noise_power_dbm))
        scale = math.sqrt(noise_mw / 2.0)
        amplitudes = db_to_amplitude(true_powers)
        powers_dbm = np.empty_like(true_powers)
        for column in range(true_powers.shape[1]):
            noise = (self._rng.normal(0.0, scale, count) +
                     1j * self._rng.normal(0.0, scale, count))
            cross = np.mean(np.real(tone * np.conj(noise)))
            noise_power = np.mean(np.abs(noise) ** 2)
            mean_mw = (amplitudes[:, column] ** 2 * tone_power +
                       2.0 * amplitudes[:, column] * cross + noise_power)
            powers_dbm[:, column] = milliwatts_to_dbm(mean_mw)
        return powers_dbm.reshape(raw.shape)

    def measure_average_dbm(self, seconds: float, vx: float = 0.0,
                            vy: float = 0.0, chunk_s: float = 0.01) -> float:
        """Average received power over a longer observation window.

        The paper's baseline measurements average 30 seconds of samples;
        simulating 30 M samples directly would be wasteful, so the window
        is split into chunks and the chunk powers are averaged in the
        linear domain, which is statistically equivalent for a
        stationary link.  The chunks are one
        :meth:`measure_power_dbm_series`, so one budget pass.
        """
        _check_positive_finite("averaging window", seconds)
        _check_positive_finite("chunk duration", chunk_s)
        # Cap the simulated chunks; beyond a few dozen the average has
        # converged far below the 0.1 dB reporting resolution.
        chunk_count = max(1, int(round(min(seconds / chunk_s, 50))))
        chunk_dbm = self.measure_power_dbm_series(chunk_count, vx=vx, vy=vy,
                                                  duration_s=chunk_s)
        return float(milliwatts_to_dbm(np.mean(dbm_to_milliwatts(chunk_dbm))))


__all__ = ["SimulatedTransmitter", "SimulatedReceiver", "ReceivedCapture"]
