"""Typed fault errors and the retryable-error classification.

The resilience layer distinguishes *transient* faults — worth retrying
with backoff — from programming errors, which must propagate.  All
injected call-level faults derive from :class:`TransientFaultError`,
the one retryable class; anything else (a
:class:`~repro.hardware.visa.VisaError` for malformed SCPI or a closed
session included) propagates on the first attempt.
"""

from __future__ import annotations


class TransientFaultError(RuntimeError):
    """A fault that may succeed on retry (the retryable base class)."""


class ProbeFaultError(TransientFaultError):
    """A measurement probe failed at the call level (I/O, not data)."""


#: Exception types a :class:`~repro.faults.retry.RetryPolicy` retries by
#: default.
DEFAULT_RETRYABLE = (TransientFaultError,)


def is_retryable(error: BaseException,
                 retryable=DEFAULT_RETRYABLE) -> bool:
    """Whether an exception is worth retrying under a policy."""
    return isinstance(error, tuple(retryable))


__all__ = [
    "DEFAULT_RETRYABLE",
    "ProbeFaultError",
    "TransientFaultError",
    "is_retryable",
]
