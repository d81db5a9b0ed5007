"""Probe re-voting: median-of-k with outlier rejection.

A single corrupted probe must not hijack Algorithm 1's coarse-to-fine
search: one +6 dB impulse at the wrong grid cell moves the refinement
window for every later iteration.  :class:`ProbePolicy` makes the
controller's probes *votes*: each grid is probed ``repeats`` times and
the per-element median is used, with NaN dropouts excluded from the
vote (an element is lost only when every repeat dropped).

``repeats=1`` is the exact identity — one probe, returned untouched —
so the default controller behaviour (and all parity suites) are
bit-identical to the pre-resilience pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ProbePolicy:
    """How the controller turns raw probes into trusted measurements.

    Attributes
    ----------
    repeats:
        Probes per grid (``k`` of median-of-k).  1 disables re-voting.
    """

    repeats: int = 1

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError("need at least one probe repeat")

    @property
    def active(self) -> bool:
        """Whether re-voting changes anything (``repeats > 1``)."""
        return self.repeats > 1

    def measure(self, probe, *args, **kwargs) -> np.ndarray:
        """Issue ``repeats`` probes and aggregate element-wise.

        ``probe`` is any batched measurement callable; repeats are
        issued sequentially (preserving stateful backends' draw order)
        and reduced with :meth:`aggregate`.
        """
        if not self.active:
            return np.asarray(probe(*args, **kwargs), dtype=float)
        samples = np.stack([np.asarray(probe(*args, **kwargs), dtype=float)
                            for _ in range(self.repeats)])
        return self.aggregate(samples)

    def aggregate(self, samples: np.ndarray) -> np.ndarray:
        """Element-wise median over the leading repeat axis.

        NaN repeats (dropped probes) are excluded from each element's
        vote; an element is NaN only when every repeat dropped.  The
        median rejects any minority of corrupted repeats outright.

        Sort-based: NaN sorts last, so each element's ``c`` valid
        repeats come first, and the median is the middle one (``c``
        odd) or the mean of the two middle ones (``c`` even).  That
        equals ``np.nanmedian(samples, axis=0)`` exactly, without its
        ``numpy.ma`` route for short repeat axes, except that an odd
        middle above ~9e307 stays finite (``numpy.ma`` averages it with
        itself and overflows to inf).
        """
        samples = np.asarray(samples, dtype=float)
        if samples.shape[0] == 1:
            return samples[0]
        ordered = np.sort(samples, axis=0)
        valid = np.count_nonzero(~np.isnan(samples), axis=0)
        low, high = np.take_along_axis(
            ordered, np.stack([(valid - 1) // 2, valid // 2]), axis=0)
        with np.errstate(invalid="ignore", over="ignore"):
            # -inf and +inf middles average to NaN, as in np.nanmedian,
            # and a total dropout reads only NaN entries.  The mean is
            # also taken (and discarded) where ``c`` is odd, so its
            # overflow must not warn either.
            median = np.where(valid % 2 == 1, high, (low + high) / 2.0)
        return median[()]


__all__ = ["ProbePolicy"]
