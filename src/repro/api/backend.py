"""Measurement backends: the typed data plane of the batched API.

The controller, the rotation-angle estimator, the schedulers and the
figure runners ask the world one question: "what power does the
receiver report at these operating points?".  This module states that
question as one protocol and its stock answers:

* :class:`MeasurementBackend` — the protocol: ``measure_grid(grid)``
  reports received power at every operating point of a
  :class:`~repro.channel.grid.ProbeGrid` (bias voltages plus any subset
  of :data:`~repro.channel.grid.SWEEP_AXES`, receiver orientation
  included) as an array of ``grid.shape``;
* :class:`LinkBackend` — the simulation backend, delegating to the
  vectorized :meth:`repro.channel.link.WirelessLink.evaluate` engine;
* :class:`ReceiverSweepBackend` — a noisy sampling receiver, for the
  capacity experiments;
* :class:`CallableBackend` — the one adapter for scalar instruments
  (recorded traces, turntables, real hardware): it calls
  ``fn(vx, vy, **link_axes)`` once per grid point, in C order.

Orchestration layers accept only backends; a bare callable is rejected
with a ``TypeError`` naming :class:`CallableBackend`.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.channel.grid import VOLTAGE_AXES, ProbeGrid
from repro.channel.link import WirelessLink
from repro.radio.signal import _sample_count


@runtime_checkable
class MeasurementBackend(Protocol):
    """Anything that reports received power over a probe grid."""

    def measure_grid(self, grid: ProbeGrid) -> np.ndarray:
        """Received power (dBm) at every grid operating point."""
        ...


class LinkBackend:
    """The simulation backend: probes a :class:`WirelessLink` directly.

    This is the noiseless, vectorized data plane every deterministic
    sweep and figure runner uses: the full link budget over the whole
    grid, link-parameter axes included, in one NumPy pass.
    """

    def __init__(self, link: WirelessLink):
        self.link = link

    def measure_grid(self, grid: ProbeGrid) -> np.ndarray:
        """Received power (dBm) over a whole N-D probe grid at once."""
        return self.link.evaluate_grid(grid)


class CallableBackend:
    """Adapts a scalar ``fn(vx, vy, **link_axes)`` instrument to the protocol.

    Each grid point becomes one call, in C order of ``grid.shape``, with
    the point's bias pair (0 V for an absent voltage axis) and its
    link-parameter axes as keywords (``rx_orientation=...``,
    ``frequency=...``).  The fixed order preserves the noise-sequence
    and clock behaviour of stateful instruments such as a simulated
    sampling receiver or a hardware supply in the loop.
    """

    def __init__(self, measure: Callable[..., float]):
        if not callable(measure):
            raise TypeError("CallableBackend needs a measure(vx, vy, "
                            "**link_axes) callable")
        self._instrument = measure

    def measure_grid(self, grid: ProbeGrid) -> np.ndarray:
        """Call the instrument once per grid point."""
        vx, vy = (points.ravel() for points in grid.bias_points())
        axes = {axis.name: grid.expand(axis.name).ravel()
                for axis in grid.axes if axis.name not in VOLTAGE_AXES}
        powers = [self._instrument(float(vx[index]), float(vy[index]),
                                   **{name: float(values[index])
                                      for name, values in axes.items()})
                  for index in range(vx.size)]
        return np.array(powers, dtype=float).reshape(grid.shape)


class ReceiverSweepBackend:
    """Probe-grid measurement plane over a noisy sampling receiver.

    Adapts a :class:`repro.radio.transceiver.SimulatedReceiver` to the
    protocol for the capacity experiments of Figs. 18-19, where the
    controller must see *noisy* power reports.  Probes are issued
    through the receiver's batched :meth:`measure_power_dbm_grid`, which
    draws one noise realisation per probe column and shares it across
    axis points — reproducing, to floating-point round-off, the reports
    a Python loop of identically seeded per-point receivers would have
    produced.  The capture parameters are validated on construction.
    """

    def __init__(self, receiver, duration_s: float = 0.005,
                 tone_frequency_hz: float = 500e3):
        _sample_count(tone_frequency_hz, receiver.sample_rate_hz, duration_s)
        self.receiver = receiver
        self.duration_s = duration_s
        self.tone_frequency_hz = tone_frequency_hz

    def measure_grid(self, grid: ProbeGrid) -> np.ndarray:
        """Noisy received-power reports over an (axis points, probes) grid."""
        return self.receiver.measure_power_dbm_grid(
            grid, duration_s=self.duration_s,
            tone_frequency_hz=self.tone_frequency_hz)


__all__ = [
    "MeasurementBackend",
    "LinkBackend",
    "CallableBackend",
    "ReceiverSweepBackend",
]
