"""Simulated VISA (Virtual Instrument Software Architecture) transport.

The paper controls its Tektronix 2230G supply "with a Python script that
uses the VISA standard" (Secs. 3.3 and 4).  This module provides a tiny
SCPI-over-VISA simulation so the rest of the system can exercise the
same command/response flow that production code would use with a real
instrument, without any hardware present.

Only the small SCPI subset the LLAMA controller needs is implemented:
identification, channel selection, voltage setting/query and output
enable.  Unknown commands raise :class:`VisaError`, mirroring how a real
instrument would flag malformed SCPI.  The transport never fails on its
own: the fault plane (:mod:`repro.faults`) injects faults at the probe,
actuator and supply level, not into the VISA session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List


class VisaError(RuntimeError):
    """Raised for malformed SCPI commands or closed sessions."""


@dataclass
class SimulatedVisaSession:
    """One open VISA session to a simulated instrument.

    Parameters
    ----------
    resource_name:
        VISA resource string (e.g. ``"USB0::0x05E6::0x2230::SIM::INSTR"``).
    handler:
        Callable that receives a SCPI command string and returns the
        response string (empty for write-only commands).
    """

    resource_name: str
    handler: Callable[[str], str]
    timeout_ms: int = 2000
    is_open: bool = True
    command_log: List[str] = field(default_factory=list)

    def write(self, command: str) -> None:
        """Send a SCPI command that expects no response."""
        self._check_open()
        command = command.strip()
        if not command:
            raise VisaError("empty SCPI command")
        self.command_log.append(command)
        self.handler(command)

    def query(self, command: str) -> str:
        """Send a SCPI query and return the instrument's response."""
        self._check_open()
        command = command.strip()
        if not command.endswith("?"):
            raise VisaError(f"query command must end with '?': {command!r}")
        self.command_log.append(command)
        return self.handler(command)

    def close(self) -> None:
        """Close the session; further I/O raises :class:`VisaError`.

        Idempotent: closing an already-closed session is a no-op, so
        explicit ``close()`` composes with the context manager's
        ``__exit__`` (which always closes, success or exception).
        """
        self.is_open = False

    def _check_open(self) -> None:
        if not self.is_open:
            raise VisaError(f"session to {self.resource_name} is closed")

    def __enter__(self) -> "SimulatedVisaSession":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        # Close on both the clean and the exception path; never
        # swallow the in-flight exception (the None return).
        self.close()


class VisaResourceManager:
    """Registry of simulated instruments addressable by resource string."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Callable[[str], str]] = {}

    def register(self, resource_name: str,
                 handler: Callable[[str], str]) -> None:
        """Register an instrument's SCPI handler under a resource name."""
        if not resource_name:
            raise ValueError("resource name must be non-empty")
        self._instruments[resource_name] = handler

    def list_resources(self) -> List[str]:
        """List registered resource strings (mirrors pyvisa's API)."""
        return sorted(self._instruments)

    def open_resource(self, resource_name: str,
                      timeout_ms: int = 2000) -> SimulatedVisaSession:
        """Open a session to a registered instrument."""
        if resource_name not in self._instruments:
            raise VisaError(f"no such resource: {resource_name}")
        return SimulatedVisaSession(resource_name=resource_name,
                                    handler=self._instruments[resource_name],
                                    timeout_ms=timeout_ms)


__all__ = ["VisaError", "SimulatedVisaSession", "VisaResourceManager"]
