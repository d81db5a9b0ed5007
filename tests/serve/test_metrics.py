"""Metrics-plane tests, property-based where it counts.

The percentile helper feeds the latency gates of the serve
experiments, so its order statistics must be correct for *any* sample
set — hypothesis drives the p50 <= p95 <= p99 invariant, NaN handling
and degenerate inputs.
"""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.serve.metrics import LatencySummary, ServiceMetrics, percentile
from repro.serve.requests import Response

finite_floats = st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False)


class TestPercentileProperties:
    @given(samples=st.lists(finite_floats, min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_percentiles_are_ordered(self, samples):
        p50 = percentile(samples, 50.0)
        p95 = percentile(samples, 95.0)
        p99 = percentile(samples, 99.0)
        assert p50 <= p95 <= p99

    @given(samples=st.lists(finite_floats, min_size=1, max_size=50),
           q=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_percentile_bounded_by_extremes(self, samples, q):
        value = percentile(samples, q)
        assert min(samples) <= value <= max(samples)

    @given(samples=st.lists(finite_floats, min_size=1, max_size=30),
           nan_count=st.integers(min_value=1, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_nans_are_ignored(self, samples, nan_count):
        polluted = list(samples) + [math.nan] * nan_count
        assert percentile(polluted, 95.0) == percentile(samples, 95.0)

    @given(value=finite_floats,
           q=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_single_sample_is_every_percentile(self, value, q):
        assert percentile([value], q) == value


#: Samples drawn from a small pool (repeats, signed zeros) or anywhere,
#: polluted with NaN and infinities that ``percentile`` must drop.
pooled_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 1e-300]), finite_floats,
    st.floats(allow_nan=False, allow_infinity=False))
polluted_samples = st.lists(
    st.one_of(pooled_floats, st.sampled_from([math.nan, math.inf,
                                               -math.inf])),
    max_size=40)


class TestPercentileEqualsNumpy:
    """The sort-based percentile is NumPy's ``linear`` rule, bit for bit."""

    @given(samples=polluted_samples,
           q=st.one_of(st.sampled_from([0.0, 50.0, 95.0, 99.0, 100.0]),
                       st.floats(min_value=0.0, max_value=100.0)))
    @example(samples=[7.5], q=0.0)
    @example(samples=[7.5], q=100.0)
    @example(samples=[-0.0], q=50.0)
    @example(samples=[1.0, 2.0], q=50.0)
    @example(samples=[2.0, 1.0, math.nan], q=100.0)
    @example(samples=[3.0, 3.0, 3.0, math.inf, -math.inf], q=95.0)
    @example(samples=[0.1, 0.7, 0.2, 0.2], q=99.0)
    @settings(max_examples=300, deadline=None)
    def test_equals_numpy_percentile_of_the_finite_samples(self, samples, q):
        finite = [value for value in samples if math.isfinite(value)]
        result = percentile(samples, q)
        if not finite:
            assert math.isnan(result)
            return
        # Tolerance 0.  Only the sign of a zero may differ: a sort and
        # NumPy's partition order the equal keys -0.0 and 0.0 freely.
        assert result == float(np.percentile(finite, q))

    @given(samples=st.lists(
        st.one_of(st.sampled_from([0.0, 0.25, 0.5]), finite_floats),
        min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_summary_percentiles_equal_numpy(self, samples):
        summary = LatencySummary.from_samples(samples)
        assert (summary.p50_s, summary.p95_s, summary.p99_s) == tuple(
            float(np.percentile(samples, q)) for q in (50.0, 95.0, 99.0))

    def test_serving_a_trace_leaves_numpy_ma_unimported(self):
        """``np.percentile`` imports ``numpy.ma`` on its first call; the
        sort-based percentile keeps it out of a serve run."""
        script = textwrap.dedent("""
            import sys
            from repro.api.fleet import FleetSession, FleetSpec
            from repro.serve import (LoadProfile, RequestMix,
                                     generate_trace, serve_trace)
            spec = FleetSpec.office(station_count=4)
            trace = generate_trace(
                LoadProfile(rate_rps=200.0, duration_s=0.2, seed=1,
                            mix=RequestMix(0.6, 0.15, 0.1, 0.15)),
                spec.station_names)
            before = "numpy.ma" in sys.modules
            result = serve_trace(FleetSession(spec), trace)
            assert result.metrics.latency.count > 0
            print(before, "numpy.ma" in sys.modules)
        """)
        src = str(Path(__file__).resolve().parents[2] / "src")
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True)
        assert completed.stdout.split() == ["False", "False"]


class TestPercentileEdges:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50.0))

    def test_all_nan_is_nan(self):
        assert math.isnan(percentile([math.nan, math.nan], 99.0))

    def test_infinities_are_filtered(self):
        assert percentile([math.inf, 1.0, -math.inf], 50.0) == 1.0

    @pytest.mark.parametrize("q", [-0.1, 100.1])
    def test_out_of_range_percentile_raises(self, q):
        with pytest.raises(ValueError, match="0, 100"):
            percentile([1.0], q)

    def test_two_samples_interpolate(self):
        assert percentile([0.0, 1.0], 50.0) == pytest.approx(0.5)


class TestLatencySummary:
    def test_empty_summary_is_nan_everywhere(self):
        summary = LatencySummary.from_samples([])
        assert summary.count == 0
        for value in (summary.avg_s, summary.p50_s, summary.p95_s,
                      summary.p99_s, summary.max_s):
            assert math.isnan(value)

    def test_summary_orders_its_percentiles(self):
        summary = LatencySummary.from_samples([0.4, 0.1, 0.9, 0.2, 0.3])
        assert summary.count == 5
        assert summary.p50_s <= summary.p95_s <= summary.p99_s \
            <= summary.max_s
        assert summary.avg_s == pytest.approx(0.38)


def _response(request_id, status, *, arrival=0.0, completed=0.1,
              batch_size=1):
    return Response(request_id=request_id, kind="measure", station="sta-000",
                    status=status, value=-40.0 if status == "ok" else math.nan,
                    arrival_s=arrival, completed_s=completed,
                    batch_size=batch_size)


def _loop_metrics(responses, queue_samples=()):
    """The per-response loop ``ServiceMetrics`` replaced, with
    ``np.percentile``: the reference the column path must equal."""
    ok = [r for r in responses if r.status == "ok"]
    rejected = sum(1 for r in responses if r.status == "rejected")
    failed = sum(1 for r in responses if r.status == "failed")
    makespan = max((r.completed_s for r in responses), default=0.0)
    sizes = [r.batch_size for r in responses if r.status != "rejected"]
    latencies = np.asarray([r.latency_s for r in ok], dtype=float)
    latency = LatencySummary(
        count=len(ok), avg_s=float(np.mean(latencies)),
        p50_s=float(np.percentile(latencies, 50.0)),
        p95_s=float(np.percentile(latencies, 95.0)),
        p99_s=float(np.percentile(latencies, 99.0)),
        max_s=float(np.max(latencies))) if ok else \
        LatencySummary.from_samples([])
    return ServiceMetrics(
        request_count=len(responses), ok_count=len(ok),
        rejected_count=rejected, failed_count=failed, makespan_s=makespan,
        throughput_rps=len(ok) / makespan if makespan > 0 else 0.0,
        failure_rate=((rejected + failed) / len(responses)
                      if responses else 0.0),
        latency=latency,
        mean_batch_size=float(np.mean(sizes)) if sizes else 0.0,
        max_batch_size=max(sizes, default=0),
        queue_depth_times_s=tuple(float(at) for at, _ in queue_samples),
        queue_depths=tuple(int(depth) for _, depth in queue_samples))


times = st.floats(min_value=0.0, max_value=10.0)
response_rows = st.lists(st.tuples(
    st.sampled_from(["ok", "ok", "rejected", "failed"]), times, times,
    st.integers(min_value=0, max_value=32)), max_size=40)


class TestServiceMetrics:
    @given(rows=response_rows,
           samples=st.lists(st.tuples(times, st.integers(0, 64)),
                            max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_columns_equal_the_per_response_loop(self, rows, samples):
        responses = [
            _response(index, status, arrival=arrival,
                      completed=arrival + wait, batch_size=size)
            for index, (status, arrival, wait, size) in enumerate(rows)]
        metrics = ServiceMetrics.from_responses(responses, samples)
        assert repr(metrics) == repr(_loop_metrics(responses, samples))

    def test_counts_throughput_and_failure_rate(self):
        responses = [
            _response(0, "ok", completed=0.5, batch_size=2),
            _response(1, "ok", completed=1.0, batch_size=2),
            _response(2, "failed", completed=1.0),
            _response(3, "rejected", completed=0.2, batch_size=0),
        ]
        metrics = ServiceMetrics.from_responses(responses)
        assert metrics.request_count == 4
        assert metrics.ok_count == 2
        assert metrics.failed_count == 1
        assert metrics.rejected_count == 1
        assert metrics.makespan_s == 1.0
        assert metrics.throughput_rps == pytest.approx(2.0)
        assert metrics.failure_rate == pytest.approx(0.5)
        # Rejections never touched a probe: batch stats cover executed
        # responses only.
        assert metrics.mean_batch_size == pytest.approx((2 + 2 + 1) / 3)
        assert metrics.max_batch_size == 2

    def test_empty_run_degrades_gracefully(self):
        metrics = ServiceMetrics.from_responses([])
        assert metrics.request_count == 0
        assert metrics.throughput_rps == 0.0
        assert metrics.failure_rate == 0.0
        assert metrics.max_queue_depth == 0

    def test_queue_depth_series(self):
        metrics = ServiceMetrics.from_responses(
            [_response(0, "ok")],
            queue_samples=[(0.0, 1), (0.1, 3), (0.2, 0)])
        assert metrics.queue_depths == (1, 3, 0)
        assert metrics.queue_depth_times_s == (0.0, 0.1, 0.2)
        assert metrics.max_queue_depth == 3

    def test_row_is_json_ready(self):
        row = ServiceMetrics.from_responses([_response(0, "ok")]).row()
        assert row["ok_count"] == 1.0
        assert set(row) >= {"throughput_rps", "failure_rate",
                            "p95_latency_s", "mean_batch_size"}
