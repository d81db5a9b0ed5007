"""SurfaceService tests: parity, coalescing, admission, degradation."""

import math

import numpy as np
import pytest

from repro.api.fleet import FleetSession, FleetSpec
from repro.channel.link import probe_evaluations
from repro.faults import FaultSchedule, FaultSpec, RetryPolicy
from repro.serve import (
    MEASURE_ONLY,
    LoadProfile,
    Request,
    RequestTrace,
    ServiceConfig,
    SurfaceService,
    generate_trace,
    serve_trace,
)

SPEC = FleetSpec.office(station_count=4)


def measure_trace(rate_rps=200.0, duration_s=0.4, seed=11):
    profile = LoadProfile(rate_rps=rate_rps, duration_s=duration_s,
                          mix=MEASURE_ONLY, seed=seed)
    return generate_trace(profile, SPEC.station_names)


class TestZeroFaultParity:
    def test_served_values_match_direct_probe(self):
        """The acceptance gate: service == FleetSession, <= 1e-9 dB."""
        trace = measure_trace()
        result = serve_trace(FleetSession(SPEC), trace,
                             ServiceConfig(batch_window_s=0.01))
        ok = [response for response in result.responses if response.ok]
        assert len(ok) == len(trace)
        by_id = {request.request_id: request for request in trace.requests}
        names = [by_id[response.request_id].station for response in ok]
        vx = [by_id[response.request_id].vx for response in ok]
        vy = [by_id[response.request_id].vy for response in ok]
        direct = FleetSession(SPEC).measure_aligned(vx, vy, stations=names)
        served = np.asarray([response.value for response in ok])
        assert np.max(np.abs(served - direct)) <= 1e-9

    def test_unbatched_window_matches_too(self):
        trace = measure_trace(rate_rps=60.0, duration_s=0.3)
        result = serve_trace(FleetSession(SPEC), trace,
                             ServiceConfig(batch_window_s=0.0))
        reference = FleetSession(SPEC)
        for request, response in zip(trace.requests, result.responses):
            direct = reference.measure_aligned(
                [request.vx], [request.vy], stations=[request.station])
            assert response.ok
            assert abs(response.value - float(direct[0])) <= 1e-9


class TestCoalescing:
    def test_batching_cuts_probe_passes(self):
        trace = measure_trace(rate_rps=400.0, duration_s=0.4)

        def passes(window):
            fleet = FleetSession(SPEC)
            before = probe_evaluations()
            result = serve_trace(fleet, trace,
                                 ServiceConfig(batch_window_s=window,
                                               queue_capacity=10_000))
            assert result.metrics.ok_count == len(trace)
            return probe_evaluations() - before, result

        unbatched_passes, unbatched = passes(0.0)
        batched_passes, batched = passes(0.02)
        assert batched.metrics.mean_batch_size > 2.0
        assert unbatched.metrics.mean_batch_size == 1.0
        assert batched_passes * 3 <= unbatched_passes

    def test_batch_never_exceeds_max_batch(self):
        trace = measure_trace(rate_rps=500.0, duration_s=0.4)
        result = serve_trace(
            FleetSession(SPEC), trace,
            ServiceConfig(batch_window_s=0.05, max_batch=8,
                          queue_capacity=10_000))
        assert result.metrics.max_batch_size <= 8

    def test_every_request_gets_exactly_one_response(self):
        trace = measure_trace(rate_rps=300.0, duration_s=0.4)
        result = serve_trace(FleetSession(SPEC), trace,
                             ServiceConfig(batch_window_s=0.01))
        ids = [response.request_id for response in result.responses]
        assert ids == list(range(len(trace)))
        assert result.trace_digest == trace.digest()


class TestSchedulingOrder:
    """The event loop's interleaving, pinned on a 4-station fleet with a
    10 ms window: an arrival due with the window's end joins that
    window (equal due times pop in push order), an arrival during
    service waits for the next window, and the close marker counts in
    queue-depth samples."""

    @staticmethod
    def serve(arrivals):
        trace = _trace(Request(request_id=index, kind="measure",
                               station=SPEC.station_names[index],
                               arrival_s=arrival)
                       for index, arrival in enumerate(arrivals))
        service = SurfaceService(FleetSession(SPEC),
                                 ServiceConfig(batch_window_s=0.01))
        result = service.serve_trace(trace)
        return (tuple(r.batch_size for r in result.responses),
                tuple(r.completed_s for r in result.responses),
                tuple(depth for _, depth in service._queue_samples))

    def test_arrival_at_the_window_end_joins_the_window(self):
        sizes, completed, _ = self.serve((0.0, 0.01))
        assert sizes == (2, 2)
        assert completed == (0.015, 0.015)

    def test_arrival_during_service_waits_for_the_next_window(self):
        sizes, completed, depths = self.serve((0.0, 0.005, 0.01))
        assert sizes == (2, 2, 1)
        # 0.015 + 0.0145 in floats, one ulp above 0.0295.
        assert completed == (0.015, 0.015, 0.029500000000000002)
        assert depths == (1, 1, 1, 2, 1)


class TestAdmissionControl:
    def test_queue_overflow_sheds_with_typed_rejection(self):
        trace = measure_trace(rate_rps=2000.0, duration_s=0.2)
        service = SurfaceService(
            FleetSession(SPEC),
            ServiceConfig(batch_window_s=0.0, queue_capacity=4))
        result = service.serve_trace(trace)
        rejected = [r for r in result.responses if r.status == "rejected"]
        assert rejected, "an overloaded tiny queue must shed"
        assert service.shed_count == len(rejected)
        for response in rejected:
            assert response.detail == "queue-full"
            assert response.batch_size == 0
            assert math.isnan(response.value)
        assert len(result.responses) == len(trace)

    def test_quarantined_station_is_refused(self):
        trace = measure_trace(rate_rps=200.0, duration_s=0.3)
        fleet = FleetSession(SPEC)
        victim = SPEC.station_names[0]
        fleet.quarantine(victim)
        result = serve_trace(fleet, trace, ServiceConfig())
        for response in result.responses:
            if response.station == victim:
                assert response.status == "rejected"
                assert response.detail == "quarantined"
            else:
                assert response.ok


class TestKindSemantics:
    def test_schedule_request_returns_epoch_throughput(self):
        request = Request(request_id=0, kind="schedule",
                          station=SPEC.station_names[0], arrival_s=0.0,
                          strategy="per-station")
        result = serve_trace(
            FleetSession(SPEC),
            trace=_single_trace(request), config=ServiceConfig())
        expected = FleetSession(SPEC).schedule("per-station")
        assert result.responses[0].ok
        assert result.responses[0].value == pytest.approx(
            float(expected.total_throughput_mbps))

    def test_schedule_requests_across_batches_cost_one_pass(self):
        """The fleet's epoch memo, not the batch, dedupes epochs: one
        strategy asked in several windows probes once in all."""
        trace = _trace(Request(request_id=index, kind="schedule",
                               station=SPEC.station_names[index % 4],
                               arrival_s=arrival)
                       for index, arrival in enumerate(
                           (0.0, 0.05, 0.051, 0.1, 0.15)))
        fleet = FleetSession(SPEC)
        before = probe_evaluations()
        result = serve_trace(fleet, trace,
                             ServiceConfig(batch_window_s=0.01))
        assert probe_evaluations() - before == 1
        assert len({r.completed_s for r in result.responses}) == 4
        expected = FleetSession(SPEC).schedule().total_throughput_mbps
        assert [r.value for r in result.responses if r.ok] == [expected] * 5

    def test_unknown_strategy_fails_typed(self):
        request = Request(request_id=0, kind="schedule",
                          station=SPEC.station_names[0], arrival_s=0.0,
                          strategy="round-robin")
        result = serve_trace(FleetSession(SPEC), _single_trace(request),
                             ServiceConfig())
        assert result.responses[0].status == "failed"
        assert result.responses[0].detail == "unknown-strategy"

    def test_health_request_reports_fault_count(self):
        request = Request(request_id=0, kind="health",
                          station=SPEC.station_names[0], arrival_s=0.0)
        result = serve_trace(FleetSession(SPEC), _single_trace(request),
                             ServiceConfig())
        assert result.responses[0].ok
        assert result.responses[0].value == 0.0

    def test_optimize_request_returns_best_power(self):
        request = Request(request_id=0, kind="optimize",
                          station=SPEC.station_names[1], arrival_s=0.0)
        result = serve_trace(FleetSession(SPEC), _single_trace(request),
                             ServiceConfig())
        fleet = FleetSession(SPEC)
        expected = fleet.optimize_grid(step_v=5.0)
        index = fleet.active_stations.index(SPEC.station_names[1])
        assert result.responses[0].ok
        assert result.responses[0].value == pytest.approx(
            float(np.asarray(expected.best_power_dbm).ravel()[index]))


class TestFaultDegradation:
    def test_dropouts_fail_requests_without_crashing(self):
        trace = measure_trace(rate_rps=300.0, duration_s=0.4)
        schedule = FaultSchedule(FaultSpec(probe_dropout_rate=0.2), seed=5)
        fleet = FleetSession(SPEC, fault_schedule=schedule,
                             retry_policy=RetryPolicy(max_attempts=3))
        result = serve_trace(fleet, trace, ServiceConfig())
        statuses = {r.status for r in result.responses}
        failed = [r for r in result.responses if r.status == "failed"]
        assert len(result.responses) == len(trace)
        assert failed, "a 20% dropout rate must fail some requests"
        assert statuses <= {"ok", "failed"}
        for response in failed:
            assert response.detail == "probe-dropout"
            assert math.isnan(response.value)
        assert result.metrics.failure_rate < 1.0, \
            "the service must keep serving the healthy majority"

    def test_fault_run_is_replayable(self):
        trace = measure_trace(rate_rps=300.0, duration_s=0.4)

        def once():
            schedule = FaultSchedule(
                FaultSpec(probe_dropout_rate=0.1, probe_error_rate=0.02),
                seed=9)
            fleet = FleetSession(SPEC, fault_schedule=schedule,
                                 retry_policy=RetryPolicy(max_attempts=2))
            result = serve_trace(fleet, trace, ServiceConfig())
            return result.responses, schedule.trace.digest()

        assert once() == once()


class TestDeterminism:
    def test_identical_runs_produce_identical_responses(self):
        trace = generate_trace(
            LoadProfile(rate_rps=250.0, duration_s=0.4, seed=13),
            SPEC.station_names)

        def once():
            return serve_trace(FleetSession(SPEC), trace,
                               ServiceConfig(batch_window_s=0.01))

        first, second = once(), once()
        assert first.responses == second.responses
        assert first.metrics == second.metrics


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs,match", [
        ({"batch_window_s": -0.1}, "window"),
        ({"queue_capacity": 0}, "capacity"),
        ({"max_batch": 0}, "batch"),
        ({"point_cost_s": -1.0}, "point_cost_s"),
        ({"optimize_step_v": 0.0}, "step"),
        *[({name: value}, f"{name} must be finite")
          for name in ("batch_window_s", "probe_epoch_cost_s",
                       "point_cost_s", "optimize_cost_s", "schedule_cost_s",
                       "health_cost_s", "optimize_step_v")
          for value in (float("nan"), float("inf"))],
        ({"max_batch": 2.5}, "max_batch must be an integer"),
        ({"queue_capacity": float("inf")}, "queue_capacity must be an integer"),
        ({"queue_capacity": 64.0}, "queue_capacity must be an integer"),
    ])
    def test_bad_config_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ServiceConfig(**kwargs)

    def test_response_for_lookup(self):
        trace = measure_trace(rate_rps=100.0, duration_s=0.2)
        result = serve_trace(FleetSession(SPEC), trace, ServiceConfig())
        response = result.response_for(0)
        assert response.request_id == 0


def _trace(requests):
    return RequestTrace(requests=tuple(requests))


def _single_trace(request):
    return _trace((request,))
