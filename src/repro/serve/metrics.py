"""Service metrics: latency summaries, throughput and queue accounting.

The serving layer reports exactly the quantities the mubench-style
``run_table.csv`` discipline asks for — ``throughput_rps``, average /
p50 / p95 / p99 latency, ``failure_rate`` — plus the two internals
that explain them: batch occupancy (how well the coalescing window
amortized probe overhead) and a queue-depth time series (whether the
bounded queue saturated).  Everything is a frozen dataclass, so metrics
serialize through the experiment codec and two identical runs produce
``payload_equal`` metrics.

There is one aggregation path, :meth:`ServiceMetrics.from_columns`: it
takes a run's per-response columns (status, arrival, completion, batch
size) and its two queue series, and computes every figure with array
operations.  The service hands it the columns of the response rows it
already holds; :meth:`ServiceMetrics.from_responses` is the view that
turns any response sequence into the same columns.  Percentiles come
from one sort of the finite samples with NumPy's ``linear`` rule, so
they equal :func:`numpy.percentile` without its ``numpy.ma`` import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.serve.requests import Response


def _finite(samples: Sequence[float]) -> np.ndarray:
    """The finite entries of ``samples`` as a float array, in order."""
    values = np.asarray(samples, dtype=float)
    return values[np.isfinite(values)]


def _sorted_percentile(ordered: np.ndarray, q: float) -> float:
    """The ``q``-th percentile of ascending finite ``ordered`` samples.

    NumPy's ``linear`` method step for step: the virtual index is
    ``(n - 1) * (q / 100)`` (in that order, as NumPy rounds it), an
    index at or past the last sample reads the last one (NumPy's
    ``-1`` neighbours), and the two neighbours are blended by the
    two-sided ``_lerp``, which interpolates from the upper neighbour
    once the weight reaches 0.5.
    """
    count = ordered.size
    if count == 0:
        return math.nan
    virtual = (count - 1) * (q / 100)
    if virtual >= count - 1:
        below = above = -1
    else:
        below = math.floor(virtual)
        above = below + 1
    gamma = virtual - below
    low, high = float(ordered[below]), float(ordered[above])
    diff = high - low
    if gamma >= 0.5:
        return high - diff * (1 - gamma)
    return low + diff * gamma


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``samples``, NaN-aware.

    NaN and infinite entries are ignored; with no finite samples the
    result is NaN (never an exception), and a single sample is every
    percentile of itself.  ``q`` is in ``[0, 100]``; linear
    interpolation between order statistics (the NumPy default) keeps
    p50 of two samples at their midpoint, and the result equals
    :func:`numpy.percentile` of the finite samples exactly (only the
    sign of a zero can differ: a sort and NumPy's partition order
    ``-0.0`` and ``0.0`` freely).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return _sorted_percentile(np.sort(_finite(samples)), q)


@dataclass(frozen=True)
class LatencySummary:
    """Order statistics of one latency sample set (seconds)."""

    count: int
    avg_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencySummary":
        """Summarize a latency sample set (NaN/empty-safe)."""
        values = _finite(samples)
        if values.size == 0:
            nan = math.nan
            return cls(count=0, avg_s=nan, p50_s=nan, p95_s=nan,
                       p99_s=nan, max_s=nan)
        ordered = np.sort(values)
        return cls(
            count=int(values.size),
            avg_s=float(np.mean(values)),
            p50_s=_sorted_percentile(ordered, 50.0),
            p95_s=_sorted_percentile(ordered, 95.0),
            p99_s=_sorted_percentile(ordered, 99.0),
            max_s=float(np.max(values)))


@dataclass(frozen=True)
class ServiceMetrics:
    """One service run's scoreboard.

    ``makespan_s`` is the virtual time from trace start to the last
    completion; ``throughput_rps`` counts only ``ok`` responses against
    it, so shedding or failing requests never inflates throughput.
    ``failure_rate`` counts both typed rejections and executed-but-
    failed requests against everything submitted.
    """

    request_count: int
    ok_count: int
    rejected_count: int
    failed_count: int
    makespan_s: float
    throughput_rps: float
    failure_rate: float
    latency: LatencySummary
    mean_batch_size: float
    max_batch_size: int
    queue_depth_times_s: Tuple[float, ...] = ()
    queue_depths: Tuple[int, ...] = ()

    @property
    def max_queue_depth(self) -> int:
        """Deepest the bounded queue ever got."""
        return max(self.queue_depths) if self.queue_depths else 0

    @classmethod
    def from_columns(cls, statuses: Sequence[str],
                     arrival_s: Sequence[float],
                     completed_s: Sequence[float],
                     batch_sizes: Sequence[int],
                     queue_depth_times_s: Sequence[float] = (),
                     queue_depths: Sequence[int] = ()) -> "ServiceMetrics":
        """Aggregate one run from its per-response columns.

        ``statuses``, ``arrival_s``, ``completed_s`` and ``batch_sizes``
        hold one entry per response, in response order (latency samples
        keep that order); the queue series are the depth samples and
        their virtual times.
        """
        count = len(statuses)
        status = np.asarray(statuses, dtype=object)
        ok = status == "ok"
        executed = status != "rejected"
        ok_count = int(np.count_nonzero(ok))
        rejected = count - int(np.count_nonzero(executed))
        failed = int(np.count_nonzero(status == "failed"))
        completed = np.asarray(completed_s, dtype=float)
        makespan = float(completed.max()) if count else 0.0
        latencies = completed[ok] - np.asarray(arrival_s, dtype=float)[ok]
        sizes = np.asarray(batch_sizes, dtype=np.int64)[executed]
        return cls(
            request_count=count,
            ok_count=ok_count,
            rejected_count=rejected,
            failed_count=failed,
            makespan_s=makespan,
            throughput_rps=(ok_count / makespan if makespan > 0 else 0.0),
            failure_rate=((rejected + failed) / count if count else 0.0),
            latency=LatencySummary.from_samples(latencies),
            mean_batch_size=float(np.mean(sizes)) if sizes.size else 0.0,
            max_batch_size=int(sizes.max()) if sizes.size else 0,
            queue_depth_times_s=tuple(map(float, queue_depth_times_s)),
            queue_depths=tuple(map(int, queue_depths)))

    @classmethod
    def from_responses(cls, responses: Iterable[Response],
                       queue_samples: Iterable[Tuple[float, int]] = ()
                       ) -> "ServiceMetrics":
        """Aggregate one run's responses (and ``(time, depth)`` queue
        samples) through :meth:`from_columns`."""
        responses = tuple(responses)
        samples = tuple(queue_samples)
        return cls.from_columns(
            [response.status for response in responses],
            [response.arrival_s for response in responses],
            [response.completed_s for response in responses],
            [response.batch_size for response in responses],
            [at for at, _ in samples],
            [depth for _, depth in samples])

    def row(self) -> Dict[str, float]:
        """The run-table record (CLI / benchmark-archive shape)."""
        return {
            "request_count": float(self.request_count),
            "ok_count": float(self.ok_count),
            "rejected_count": float(self.rejected_count),
            "failed_count": float(self.failed_count),
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            "failure_rate": self.failure_rate,
            "avg_latency_s": self.latency.avg_s,
            "p50_latency_s": self.latency.p50_s,
            "p95_latency_s": self.latency.p95_s,
            "p99_latency_s": self.latency.p99_s,
            "mean_batch_size": self.mean_batch_size,
            "max_batch_size": float(self.max_batch_size),
            "max_queue_depth": float(self.max_queue_depth),
        }


__all__ = ["LatencySummary", "ServiceMetrics", "percentile"]
