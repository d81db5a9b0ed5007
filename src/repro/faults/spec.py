"""Fault model: what can go wrong, how often, and from which seed.

A :class:`FaultSpec` is a frozen, serializable description of a fault
environment — per-probe dropout and noise-burst rates, actuator
defects, supply glitches and station-churn time constants.  A
:class:`FaultSchedule` binds a spec to one master seed and hands out
*named* RNG streams (``"probe.dropout"``, ``"actuator.stuck"``,
``"churn"``, ...), each deterministically derived
from ``(seed, stream name)``.  Consumers draw from their own stream,
so adding a new fault kind never perturbs existing traces, and
replaying a schedule (same spec, same seed) reproduces every fault —
mask for mask, event for event.

Nested-draw property: a fault fires when a stream's uniform draw falls
below the configured rate, so for a *fixed seed and probe sequence*
the set of faulted probes at rate ``r1`` is a subset of the set at
``r2 >= r1``.  The degradation-curve experiments rely on this to get
monotone fault sets across their rate sweeps.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Fault kinds a schedule records in its trace.
FAULT_KINDS = ("probe.dropout", "probe.noise", "probe.error",
               "actuator.stuck", "supply.brownout", "churn.fail",
               "churn.recover")


@dataclass(frozen=True)
class FaultSpec:
    """Frozen description of one fault environment.

    All ``*_rate`` fields are per-event probabilities in ``[0, 1]``:
    per probed grid element for the data-plane faults, per backend call
    for ``probe_error_rate``, and per station-epoch for churn.

    Attributes
    ----------
    probe_dropout_rate:
        Probability a probed element reports no power (NaN).
    noise_burst_rate, noise_burst_db:
        Probability an element is hit by an impulse-noise burst, and
        the burst magnitude in dB (applied with a random sign).
    probe_error_rate:
        Probability a backend *call* raises
        :class:`~repro.faults.errors.ProbeFaultError` (retryable).
    stuck_rate, stuck_voltage_v:
        Probability a probe's phase-shifter actuators latch at
        ``stuck_voltage_v`` instead of the commanded bias pair.
    quantize_step_v:
        Actuator quantization step (0 disables): commanded voltages
        snap to multiples of this step before being applied.
    brownout_rate, brownout_clip_v:
        Probability of a supply brownout clipping both commanded
        voltages to at most ``brownout_clip_v``.
    station_mtbf_epochs, station_mttr_epochs:
        Station churn time constants, in scheduling epochs: a healthy
        station fails with probability ``1 / mtbf`` per epoch
        (``inf`` disables churn) and a failed one recovers with
        probability ``1 / mttr`` per epoch.
    """

    probe_dropout_rate: float = 0.0
    noise_burst_rate: float = 0.0
    noise_burst_db: float = 6.0
    probe_error_rate: float = 0.0
    stuck_rate: float = 0.0
    stuck_voltage_v: float = 0.0
    quantize_step_v: float = 0.0
    brownout_rate: float = 0.0
    brownout_clip_v: float = 18.0
    station_mtbf_epochs: float = math.inf
    station_mttr_epochs: float = 1.0

    def __post_init__(self) -> None:
        for name in ("probe_dropout_rate", "noise_burst_rate",
                     "probe_error_rate", "stuck_rate", "brownout_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.noise_burst_db < 0:
            raise ValueError("noise burst magnitude must be non-negative")
        if self.quantize_step_v < 0:
            raise ValueError("quantization step must be non-negative")
        if self.brownout_clip_v < 0:
            raise ValueError("brownout clip voltage must be non-negative")
        if self.station_mtbf_epochs < 1.0:
            raise ValueError("station MTBF must be >= 1 epoch")
        if self.station_mttr_epochs < 1.0:
            raise ValueError("station MTTR must be >= 1 epoch")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def perturbs_probes(self) -> bool:
        """Whether any data/actuator-plane probe fault can fire."""
        return (self.probe_dropout_rate > 0 or self.noise_burst_rate > 0
                or self.probe_error_rate > 0 or self.perturbs_voltages)

    @property
    def perturbs_voltages(self) -> bool:
        """Whether commanded bias voltages can differ from applied ones."""
        return (self.stuck_rate > 0 or self.quantize_step_v > 0
                or self.brownout_rate > 0)

    @property
    def churns_stations(self) -> bool:
        """Whether station churn is enabled."""
        return math.isfinite(self.station_mtbf_epochs)

    @property
    def active(self) -> bool:
        """Whether this spec can produce any fault at all.

        Inactive specs get the exact fast path everywhere: wrappers
        delegate without drawing from any stream, so a zero-fault run
        is bit-identical to (and as cheap as) the bare pipeline.
        """
        return self.perturbs_probes or self.churns_stations

    def scaled(self, factor: float) -> "FaultSpec":
        """The same spec with every probability scaled (and clamped).

        The degradation experiments sweep one intensity knob over a
        fixed fault *mix*; scaling keeps the mix while moving the
        aggregate rate.
        """
        if factor < 0:
            raise ValueError("scale factor must be non-negative")

        def clamp(rate: float) -> float:
            return min(1.0, rate * factor)

        return replace(
            self,
            probe_dropout_rate=clamp(self.probe_dropout_rate),
            noise_burst_rate=clamp(self.noise_burst_rate),
            probe_error_rate=clamp(self.probe_error_rate),
            stuck_rate=clamp(self.stuck_rate),
            brownout_rate=clamp(self.brownout_rate))


#: The do-nothing spec (every wrapper's exact fast path).
NO_FAULTS = FaultSpec()


@dataclass(frozen=True)
class FaultEvent:
    """One recorded fault occurrence batch.

    ``count`` faults of ``kind`` fired among ``draws`` opportunities on
    the named stream; ``sequence`` is the running draw-call number of
    that stream, so two traces are equal only if the faults fired at
    the same points of the same call sequences.
    """

    stream: str
    kind: str
    sequence: int
    draws: int
    count: int


@dataclass(frozen=True)
class FaultTrace:
    """The ordered record of every fault a schedule produced."""

    events: Tuple[FaultEvent, ...] = ()

    def counts(self) -> Dict[str, int]:
        """Total faults fired, by kind."""
        totals: Dict[str, int] = {}
        for event in self.events:
            totals[event.kind] = totals.get(event.kind, 0) + event.count
        return totals

    @property
    def total(self) -> int:
        """Total faults fired across all kinds."""
        return sum(event.count for event in self.events)

    def digest(self) -> int:
        """Stable checksum of the full trace (replay-equality pin)."""
        text = ";".join(
            f"{e.stream}|{e.kind}|{e.sequence}|{e.draws}|{e.count}"
            for e in self.events)
        return zlib.crc32(text.encode("utf-8"))


def stream_seed(seed: int, name: str) -> Tuple[int, int]:
    """Deterministic per-stream seed material: ``(seed, crc32(name))``.

    The one seed-derivation rule of the whole randomness plane: fault
    streams, churn processes and the load generator's per-station
    arrival streams all derive their RNG state this way, so streams
    are independent by name and adding a new named consumer never
    perturbs an existing one.
    """
    return (seed, zlib.crc32(name.encode("utf-8")))


class FaultSchedule:
    """A :class:`FaultSpec` bound to one master seed.

    The schedule is the single source of randomness for the whole fault
    plane.  Each consumer asks for a *named* stream; draws on one
    stream never affect another, and :meth:`replay` returns a fresh
    schedule whose streams reproduce every draw exactly.
    """

    def __init__(self, spec: FaultSpec = NO_FAULTS, seed: int = 0):
        self.spec = spec
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._sequences: Dict[str, int] = {}
        self._events: List[FaultEvent] = []

    # ------------------------------------------------------------------ #
    # Streams
    # ------------------------------------------------------------------ #
    def stream(self, name: str) -> np.random.Generator:
        """The named RNG stream (created on first use, then stateful)."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(
                stream_seed(self.seed, name))
            self._sequences[name] = 0
        return self._streams[name]

    def _next_sequence(self, name: str) -> int:
        self.stream(name)
        self._sequences[name] += 1
        return self._sequences[name]

    # ------------------------------------------------------------------ #
    # Draws
    # ------------------------------------------------------------------ #
    def fault_mask(self, name: str, shape, rate: float,
                   kind: Optional[str] = None) -> np.ndarray:
        """Boolean fault mask for one batch of opportunities.

        Faults fire where the stream's uniforms fall below ``rate``
        (the nested-draw contract), and the firing batch is recorded in
        the trace.  A zero rate still consumes draws, keeping call
        sequences aligned across a rate sweep.
        """
        sequence = self._next_sequence(name)
        uniforms = self.stream(name).random(tuple(shape))
        mask = uniforms < rate
        count = int(np.count_nonzero(mask))
        if count:
            self._events.append(FaultEvent(
                stream=name, kind=kind or name, sequence=sequence,
                draws=int(mask.size), count=count))
        return mask

    def fault_fires(self, name: str, rate: float,
                    kind: Optional[str] = None) -> bool:
        """One scalar fault draw (call-level errors)."""
        return bool(self.fault_mask(name, (), rate, kind=kind))

    def signs(self, name: str, shape) -> np.ndarray:
        """Random ±1 array (noise-burst polarity), from its own stream."""
        self._next_sequence(name)
        return np.where(self.stream(name).random(tuple(shape)) < 0.5,
                        -1.0, 1.0)

    def record(self, stream: str, kind: str, count: int = 1,
               draws: int = 1) -> None:
        """Record externally-detected fault events (quarantines, ...)."""
        if count:
            self._events.append(FaultEvent(
                stream=stream, kind=kind,
                sequence=self._next_sequence(stream), draws=draws,
                count=count))

    # ------------------------------------------------------------------ #
    # Trace / replay
    # ------------------------------------------------------------------ #
    @property
    def trace(self) -> FaultTrace:
        """Everything that has fired so far, in order."""
        return FaultTrace(events=tuple(self._events))

    def replay(self) -> "FaultSchedule":
        """A fresh schedule that reproduces this one's draws exactly."""
        return FaultSchedule(self.spec, self.seed)


__all__ = [
    "FAULT_KINDS",
    "NO_FAULTS",
    "FaultEvent",
    "FaultSchedule",
    "FaultSpec",
    "FaultTrace",
    "stream_seed",
]
