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
from typing import Sequence, Tuple

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
# standard-normal draw is most of a series' time (the budget pass and
# the clean tone are hoisted); wider blocks did not draw faster and only
# raise peak memory.
_NOISE_BLOCK = 4
# The paper's baseband tone (Sec. 4), which power reports sample.
_TONE_FREQUENCY_HZ = 500e3
# The paper's ADC sample rate (1 MHz), a receiver's default.
_SAMPLE_RATE_HZ = 1e6

#: One receiver operating point: the link it samples and the bias pair.
ReceiverPoint = Tuple[WirelessLink, float, float]


def _power_series_dbm(rng: np.random.Generator,
                      points: Sequence[ReceiverPoint], count: int,
                      sample_rate_hz: float, duration_s: float) -> np.ndarray:
    """The receiver's sampling kernel: ``count`` power reports per point.

    Returns a ``(len(points), count)`` array.  Each point gets one budget
    pass and one clean tone; then every block of captures draws its
    standard normals from ``rng`` once (each capture's real, then its
    imaginary samples) and every point scales that block by its own
    noise amplitude (``normal(0, s)`` is ``s * standard_normal()``), so
    row ``i`` is exactly the series a receiver on ``points[i]`` with
    ``rng``'s state alone would report.  The noisy capture is formed in
    preallocated buffers as ``clean + noise`` and reduced with
    ``np.abs``, which a per-capture ``np.hypot`` would not match to the
    last bit.
    """
    if count < 0:
        raise ValueError("capture count must be non-negative")
    length = _sample_count(_TONE_FREQUENCY_HZ, sample_rate_hz, duration_s)
    powers_mw = np.empty((len(points), count))
    if count == 0 or not points:
        return powers_mw
    cleans = [cosine_tone(frequency_hz=_TONE_FREQUENCY_HZ,
                          sample_rate_hz=sample_rate_hz,
                          duration_s=duration_s,
                          power_dbm=link.received_power_dbm(vx, vy)).samples
              for link, vx, vy in points]
    scales = [math.sqrt(float(dbm_to_milliwatts(link.noise_power_dbm()))
                        / 2.0)
              for link, _vx, _vy in points]
    rows = min(_NOISE_BLOCK, count)
    normals = np.empty((rows, 2, length))
    noisy = np.empty((rows, length), dtype=complex)
    sample_power = np.empty((rows, length))
    for start in range(0, count, _NOISE_BLOCK):
        block = min(_NOISE_BLOCK, count - start)
        draw = normals[:block]
        rng.standard_normal(out=draw)
        field, power = noisy[:block], sample_power[:block]
        for row, (clean, scale) in enumerate(zip(cleans, scales)):
            np.multiply(draw[:, 0], scale, out=field.real)
            np.add(clean.real, field.real, out=field.real)
            np.multiply(draw[:, 1], scale, out=field.imag)
            np.add(clean.imag, field.imag, out=field.imag)
            np.abs(field, out=power)
            np.square(power, out=power)
            powers_mw[row, start:start + block] = np.mean(power, axis=-1)
    return milliwatts_to_dbm(powers_mw)


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

    Every power report comes from one sampling kernel: one budget pass
    and one clean tone per operating point, then standard-normal noise
    drawn a block of captures at a time and scaled to the link's noise
    floor.  :meth:`measure_power_dbm_series` is the kernel's
    one-receiver view; it is bit-identical to a loop of per-capture
    reports and leaves the generator in the same state, so
    :meth:`measure_power_dbm` (its one-capture view) and
    :meth:`measure_average_dbm` (its chunk average) replay exactly.
    :meth:`shared_seed_series` runs the kernel once for many receivers
    seeded alike: it draws their common noise stream once and fans it
    out to every link.

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

    def __init__(self, link: WirelessLink,
                 sample_rate_hz: float = _SAMPLE_RATE_HZ, seed: int = 7):
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
        generator in the state those calls would.  The one-receiver view
        of the sampling kernel: one budget pass, one clean tone, and each
        capture's real and then imaginary noise samples drawn a few
        captures per generator call, as the per-capture loop draws them.
        """
        return _power_series_dbm(self._rng, [(self.link, vx, vy)], count,
                                 self.sample_rate_hz, duration_s)[0]

    @staticmethod
    def shared_seed_series(points: Sequence[ReceiverPoint], count: int,
                           seed: int, *, duration_s: float) -> np.ndarray:
        """Power series of one fresh receiver per point, all seeded alike.

        ``points`` are ``(link, vx, vy)`` operating points.  Row ``i`` of
        the returned ``(len(points), count)`` array equals
        ``SimulatedReceiver(link_i, seed=seed)
        .measure_power_dbm_series(count, vx_i, vy_i, duration_s)``
        exactly: the receivers would all draw the same standard-normal
        stream, so the kernel draws it once and scales it per link.  One
        budget pass per point, one generator per call.
        """
        return _power_series_dbm(np.random.default_rng(seed), points, count,
                                 _SAMPLE_RATE_HZ, duration_s)

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
