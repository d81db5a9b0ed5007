"""Measurement backends: the typed data plane of the batched API.

The controller, schedulers and figure runners only ever need one
operation from the world: "what power does the receiver report at a set
of bias pairs?".  The seed codebase expressed that as a scalar
``measure(vx, vy) -> power_dbm`` callable, which forces every sweep into
a Python loop over the full Jones/Friis/multipath budget.  This module
replaces the callback with a small, well-typed protocol:

* :class:`MeasurementBackend` — the protocol: ``measure`` for one probe
  and ``measure_batch`` for whole NumPy bias grids;
* :class:`GridMeasurementBackend` — ``measure_grid`` for whole
  :class:`~repro.channel.grid.ProbeGrid` probes, the one protocol for
  link-parameter axes (frequency, transmit power, distance, ...);
* :class:`LinkBackend` — the simulation backend, delegating to the
  vectorized :meth:`repro.channel.link.WirelessLink.evaluate` engine;
* :class:`ReceiverSweepBackend` — a noisy sampling receiver behind
  ``measure_grid``, for the capacity experiments;
* :class:`CallableBackend` — adapts any legacy scalar callable (noisy
  receivers, recorded traces, real hardware) to the protocol, looping
  for batches so orchestration code only ever talks batch;
* :class:`OrientationBackend` / :class:`FixedOrientationBackend` — the
  two-argument-plus-orientation variant the rotation-angle estimator
  needs, with per-orientation link caching.

Orchestration layers accept either a backend or a legacy callable; bare
callables are wrapped via :func:`as_backend` (with a deprecation
warning at the public entry points).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Optional, Protocol, runtime_checkable

import numpy as np

from repro.channel.grid import ProbeGrid
from repro.channel.link import WirelessLink
from repro.radio.signal import _sample_count

#: Legacy scalar measurement callback signature.
MeasureCallback = Callable[[float, float], float]

#: Legacy orientation-aware measurement callback signature.
OrientationMeasureCallback = Callable[[float, float, float], float]


@runtime_checkable
class MeasurementBackend(Protocol):
    """Anything that can report received power for bias pairs.

    Implementations must be consistent between the scalar and batch
    entry points: ``measure_batch([vx], [vy])[0] == measure(vx, vy)`` up
    to measurement noise.
    """

    def measure(self, vx: float, vy: float) -> float:
        """Received power (dBm) at one bias pair."""
        ...

    def measure_batch(self, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        """Received power (dBm) for arrays of bias pairs (same shape)."""
        ...


@runtime_checkable
class GridMeasurementBackend(Protocol):
    """A measurement plane that can probe a whole N-D probe grid.

    ``measure_grid(grid)`` reports received power at every operating
    point of a :class:`~repro.channel.grid.ProbeGrid` — bias voltages
    plus any subset of :data:`repro.channel.grid.SWEEP_AXES` — in one
    call, returning an array of ``grid.shape``.  This is the one probe
    the grid-native controller issues for link-parameter axes.
    """

    def measure_grid(self, grid: ProbeGrid) -> np.ndarray:
        """Received power (dBm) at every grid operating point."""
        ...


class LinkBackend:
    """The simulation backend: probes a :class:`WirelessLink` directly.

    This is the noiseless, vectorized data plane every deterministic
    sweep and figure runner uses.  Batched probes evaluate the full link
    budget over the whole grid in one NumPy pass; ``measure_grid``
    additionally vectorizes any link-parameter axes (frequency,
    tx-power, distance, orientations) alongside the bias grid.
    """

    def __init__(self, link: WirelessLink):
        self.link = link

    def measure(self, vx: float, vy: float) -> float:
        """Received power (dBm) at one bias pair."""
        return self.link.received_power_dbm(vx, vy)

    def measure_batch(self, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        """Received power (dBm) over whole bias grids in one pass."""
        return self.link.received_power_dbm_batch(vx, vy)

    def measure_grid(self, grid: ProbeGrid) -> np.ndarray:
        """Received power (dBm) over a whole N-D probe grid at once."""
        return self.link.evaluate_grid(grid)


class CallableBackend:
    """Adapts a legacy scalar ``measure(vx, vy)`` callable to the protocol.

    Batched probes fall back to a Python loop, preserving the exact
    probe order (and therefore the noise-sequence/clock behaviour of
    stateful callables such as the simulated sampling receiver or a
    hardware supply in the loop).
    """

    def __init__(self, measure: MeasureCallback):
        if not callable(measure):
            raise TypeError("CallableBackend needs a measure(vx, vy) callable")
        self._measure = measure

    def measure(self, vx: float, vy: float) -> float:
        """Received power (dBm) at one bias pair."""
        return float(self._measure(vx, vy))

    def measure_batch(self, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        """Loop the scalar callable over the (broadcast) voltage arrays."""
        vx = np.asarray(vx, dtype=float)
        vy = np.asarray(vy, dtype=float)
        vx_b, vy_b = np.broadcast_arrays(vx, vy)
        powers = np.array([self._measure(float(a), float(b))
                           for a, b in zip(vx_b.ravel(), vy_b.ravel())],
                          dtype=float)
        return powers.reshape(vx_b.shape)


class ReceiverSweepBackend:
    """Probe-grid measurement plane over a noisy sampling receiver.

    Adapts a :class:`repro.radio.transceiver.SimulatedReceiver` to the
    :class:`GridMeasurementBackend` protocol for the capacity
    experiments of Figs. 18-19, where the controller must see *noisy*
    power reports.  Probes are issued through the receiver's batched
    :meth:`measure_power_dbm_grid`, which draws one noise realisation
    per probe column and shares it across axis points — reproducing, to
    floating-point round-off, the reports a Python loop of identically
    seeded per-point receivers would have produced.  The capture
    parameters are validated on construction.
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


def as_backend(measure) -> MeasurementBackend:
    """Coerce a backend-or-callable into a :class:`MeasurementBackend`.

    Objects already exposing ``measure``/``measure_batch`` pass through
    untouched; bare callables are wrapped in :class:`CallableBackend`.
    """
    if hasattr(measure, "measure_batch") and hasattr(measure, "measure"):
        return measure
    return CallableBackend(measure)


# ---------------------------------------------------------------------- #
# Orientation-aware backends (rotation-angle estimation)
# ---------------------------------------------------------------------- #
@runtime_checkable
class OrientationMeasurementBackend(Protocol):
    """Measurement plane with a receiver-orientation degree of freedom."""

    def measure(self, orientation_deg: float, vx: float, vy: float) -> float:
        """Received power (dBm) at one (orientation, Vx, Vy) point."""
        ...

    def measure_batch(self, orientation_deg: float, vx: np.ndarray,
                      vy: np.ndarray) -> np.ndarray:
        """Received power (dBm) over bias grids at a fixed orientation."""
        ...


class OrientationBackend:
    """Orientation-aware backend over a link, caching one link per angle.

    The Sec. 3.4 estimation procedure probes the same few receiver
    orientations hundreds of times; rebuilding a :class:`WirelessLink`
    (and its frozen configuration) per probe dominated the seed
    implementation's cost.  Here each orientation's rotated link is
    built once and each voltage sweep at that orientation is a single
    vectorized pass.
    """

    def __init__(self, link: WirelessLink,
                 cache: Optional[Dict[float, WirelessLink]] = None):
        self._base = link
        self._links: Dict[float, WirelessLink] = cache if cache is not None else {}

    def link_for_orientation(self, orientation_deg: float) -> WirelessLink:
        """The link with the receive antenna rotated to ``orientation_deg``."""
        key = float(orientation_deg)
        if key not in self._links:
            configuration = self._base.configuration
            self._links[key] = WirelessLink(replace(
                configuration,
                rx_antenna=configuration.rx_antenna.rotated(key)))
        return self._links[key]

    def measure(self, orientation_deg: float, vx: float, vy: float) -> float:
        """Received power (dBm) at one (orientation, Vx, Vy) point."""
        return self.link_for_orientation(orientation_deg).received_power_dbm(
            vx, vy)

    def measure_batch(self, orientation_deg: float, vx: np.ndarray,
                      vy: np.ndarray) -> np.ndarray:
        """Vectorized bias sweep at one receiver orientation."""
        return self.link_for_orientation(
            orientation_deg).received_power_dbm_batch(vx, vy)


class CallableOrientationBackend:
    """Adapts a legacy ``measure(orientation, vx, vy)`` callable."""

    def __init__(self, measure: OrientationMeasureCallback):
        if not callable(measure):
            raise TypeError(
                "CallableOrientationBackend needs a measure(orientation, vx, "
                "vy) callable")
        self._measure = measure

    def measure(self, orientation_deg: float, vx: float, vy: float) -> float:
        """Received power (dBm) at one (orientation, Vx, Vy) point."""
        return float(self._measure(orientation_deg, vx, vy))

    def measure_batch(self, orientation_deg: float, vx: np.ndarray,
                      vy: np.ndarray) -> np.ndarray:
        """Loop the scalar callable over the (broadcast) voltage arrays."""
        vx = np.asarray(vx, dtype=float)
        vy = np.asarray(vy, dtype=float)
        vx_b, vy_b = np.broadcast_arrays(vx, vy)
        powers = np.array(
            [self._measure(float(orientation_deg), float(a), float(b))
             for a, b in zip(vx_b.ravel(), vy_b.ravel())], dtype=float)
        return powers.reshape(vx_b.shape)


class FixedOrientationBackend:
    """A :class:`MeasurementBackend` view of an orientation backend.

    Freezes the receiver orientation so the bias-voltage controller can
    sweep voltages without knowing about the turntable.
    """

    def __init__(self, backend: OrientationMeasurementBackend,
                 orientation_deg: float):
        self._backend = backend
        self.orientation_deg = float(orientation_deg)

    def measure(self, vx: float, vy: float) -> float:
        """Received power (dBm) at one bias pair."""
        return self._backend.measure(self.orientation_deg, vx, vy)

    def measure_batch(self, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        """Received power (dBm) over bias grids at the fixed orientation."""
        return self._backend.measure_batch(self.orientation_deg, vx, vy)


def as_orientation_backend(measure) -> OrientationMeasurementBackend:
    """Coerce an orientation backend-or-callable to the protocol."""
    if hasattr(measure, "measure_batch") and hasattr(measure, "measure"):
        return measure
    return CallableOrientationBackend(measure)


__all__ = [
    "MeasureCallback",
    "OrientationMeasureCallback",
    "MeasurementBackend",
    "GridMeasurementBackend",
    "LinkBackend",
    "CallableBackend",
    "ReceiverSweepBackend",
    "as_backend",
    "OrientationMeasurementBackend",
    "OrientationBackend",
    "CallableOrientationBackend",
    "FixedOrientationBackend",
    "as_orientation_backend",
]
