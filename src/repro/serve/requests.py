"""Typed requests, responses and traces of the serving plane.

A station talks to :class:`~repro.serve.service.SurfaceService` in
exactly four request kinds — ``measure`` (probe my RSSI at a bias
pair), ``optimize`` (run Algorithm 1 for me), ``schedule`` (produce a
TDMA epoch) and ``health`` (controller self-report) — captured by one
frozen :class:`Request` record.  The service answers every submitted
request with exactly one frozen :class:`Response` whose ``status`` is
``ok``, ``rejected`` (typed admission/quarantine refusal, never
executed) or ``failed`` (executed but lost to the fault plane).

Both records are plain frozen dataclasses, so the experiment codec
(:mod:`repro.experiments.artifacts`) serializes them losslessly, and a
:class:`RequestTrace` pins a whole workload with a CRC32 digest — the
load generator's determinism contract (same profile, same seed, same
stations → same digest).
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from typing import Tuple

#: Request kinds the service accepts.
REQUEST_KINDS = ("measure", "optimize", "schedule", "health")

#: Terminal statuses a response can carry.
RESPONSE_STATUSES = ("ok", "rejected", "failed")


@dataclass(frozen=True)
class Request:
    """One station request, stamped with its (virtual) arrival time.

    Attributes
    ----------
    request_id:
        Trace-unique sequence number (arrival order).
    kind:
        One of :data:`REQUEST_KINDS`.
    station:
        Requesting station's name (``""`` only for fleet-level kinds).
    arrival_s:
        Virtual arrival time at the service, seconds from trace start.
    vx, vy:
        Bias pair a ``measure`` request asks to be probed at.
    strategy:
        TDMA strategy a ``schedule`` request asks for.
    """

    request_id: int
    kind: str
    station: str
    arrival_s: float
    vx: float = 0.0
    vy: float = 0.0
    strategy: str = "polarization-reuse"

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}; "
                             f"expected one of {REQUEST_KINDS}")
        if self.arrival_s < 0.0:
            raise ValueError("arrival time must be non-negative")

    def key(self) -> str:
        """Canonical one-line form (the trace digest's unit)."""
        return (f"{self.request_id}|{self.kind}|{self.station}|"
                f"{self.arrival_s!r}|{self.vx!r}|{self.vy!r}|"
                f"{self.strategy}")


@dataclass(frozen=True)
class Response:
    """The service's answer to one request.

    ``value`` is the measured/optimized power in dBm for ``measure`` /
    ``optimize``, the epoch throughput in Mbps for ``schedule`` and the
    total observed fault count for ``health``; rejected and failed
    responses carry ``nan``.  ``batch_size`` records how many requests
    shared the coalesced probe that served this one (0 for rejections).
    """

    request_id: int
    kind: str
    station: str
    status: str
    value: float
    arrival_s: float
    completed_s: float
    batch_size: int = 1
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in RESPONSE_STATUSES:
            raise ValueError(f"unknown response status {self.status!r}; "
                             f"expected one of {RESPONSE_STATUSES}")

    @property
    def latency_s(self) -> float:
        """Sojourn time: completion minus arrival (virtual seconds)."""
        return self.completed_s - self.arrival_s

    @property
    def ok(self) -> bool:
        """Whether the request was executed and answered successfully."""
        return self.status == "ok"


@dataclass(frozen=True)
class RequestTrace:
    """An arrival-ordered workload (what the load generator emits)."""

    requests: Tuple[Request, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", tuple(self.requests))
        previous = -1.0
        for request in self.requests:
            if request.arrival_s < previous:
                raise ValueError("trace requests must be arrival-ordered")
            previous = request.arrival_s

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def duration_s(self) -> float:
        """Last arrival time (0.0 for an empty trace)."""
        return self.requests[-1].arrival_s if self.requests else 0.0

    @property
    def stations(self) -> Tuple[str, ...]:
        """Distinct stations appearing in the trace, first-seen order."""
        seen = dict.fromkeys(
            request.station for request in self.requests if request.station)
        return tuple(seen)

    def digest(self) -> int:
        """Stable CRC32 of the full trace (replay-equality pin).

        Computed on the first call and kept, since a trace and its
        requests are frozen; building a trace formats nothing.
        """
        return self._digest

    @functools.cached_property
    def _digest(self) -> int:
        text = ";".join(request.key() for request in self.requests)
        return zlib.crc32(text.encode("utf-8"))


__all__ = [
    "REQUEST_KINDS",
    "RESPONSE_STATUSES",
    "Request",
    "RequestTrace",
    "Response",
]
