"""Health accounting: what the resilience layer saw and did.

Sessions and schedulers thread a mutable :class:`HealthMonitor`
through their probe/retry/quarantine paths; at any point it snapshots
into a frozen, serializable :class:`HealthReport` — the ``health``
attribute experiment payloads and fleet results carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class HealthReport:
    """Frozen snapshot of one campaign's resilience accounting.

    Attributes
    ----------
    probes:
        Backend calls issued (after wrapping, before retries).
    retries:
        Retry attempts the :class:`~repro.faults.retry.RetryPolicy`
        consumed (0 when every call succeeded first try).
    faults_seen:
        Fault counts by kind (``"probe.dropout"``, ``"churn.fail"``,
        ...), as recorded by the monitor's consumers.
    stations_quarantined:
        Stations currently quarantined, in quarantine order.
    degraded:
        Whether the campaign saw any fault, retry or quarantine.
    """

    probes: int = 0
    retries: int = 0
    faults_seen: Dict[str, int] = field(default_factory=dict)
    stations_quarantined: Tuple[str, ...] = ()

    @property
    def total_faults(self) -> int:
        """Total faults across all kinds."""
        return sum(self.faults_seen.values())

    @property
    def degraded(self) -> bool:
        """Whether anything at all went wrong."""
        return bool(self.total_faults or self.retries
                    or self.stations_quarantined)


class HealthMonitor:
    """Mutable counters the resilience layer updates as it works."""

    def __init__(self) -> None:
        self.probes = 0
        self.retries = 0
        self._faults: Dict[str, int] = {}
        self._quarantined: List[str] = []

    def record_probe(self, count: int = 1) -> None:
        """Count issued backend calls."""
        self.probes += count

    def record_retry(self, count: int = 1) -> None:
        """Count retry attempts."""
        self.retries += count

    def record_fault(self, kind: str, count: int = 1) -> None:
        """Count observed faults of one kind."""
        if count:
            self._faults[kind] = self._faults.get(kind, 0) + count

    def record_quarantine(self, station: str) -> None:
        """Track a station entering quarantine (idempotent)."""
        if station not in self._quarantined:
            self._quarantined.append(station)

    def record_reinstate(self, station: str) -> None:
        """Track a station leaving quarantine."""
        if station in self._quarantined:
            self._quarantined.remove(station)

    @property
    def quarantined(self) -> Tuple[str, ...]:
        """Currently quarantined stations, in quarantine order."""
        return tuple(self._quarantined)

    def report(self) -> HealthReport:
        """Frozen snapshot of the current counters."""
        return HealthReport(
            probes=self.probes, retries=self.retries,
            faults_seen=dict(self._faults),
            stations_quarantined=self.quarantined)


__all__ = ["HealthMonitor", "HealthReport"]
