"""SurfaceService tests: parity, coalescing, admission, degradation."""

import math
import zlib
from fractions import Fraction

import numpy as np
import pytest

from repro.api.fleet import FleetSession, FleetSpec
from repro.channel.link import probe_evaluations
from repro.faults import FaultSchedule, FaultSpec, RetryPolicy
from repro.serve import (
    MEASURE_ONLY,
    REQUEST_KINDS,
    LoadProfile,
    Request,
    RequestMix,
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
        """Per batch with a retry plane, once per run without one."""
        trace = measure_trace(rate_rps=400.0, duration_s=0.4)

        def passes(window, retry_policy=None):
            fleet = FleetSession(SPEC, retry_policy=retry_policy)
            before = probe_evaluations()
            result = serve_trace(fleet, trace,
                                 ServiceConfig(batch_window_s=window,
                                               queue_capacity=10_000))
            assert result.metrics.ok_count == len(trace)
            return probe_evaluations() - before, result

        unbatched_passes, unbatched = passes(0.0, RetryPolicy())
        batched_passes, batched = passes(0.02, RetryPolicy())
        assert batched.metrics.mean_batch_size > 2.0
        assert unbatched.metrics.mean_batch_size == 1.0
        assert batched_passes * 3 <= unbatched_passes
        # A fault-free fleet: one stacked probe per run at any window,
        # and >= 3x fewer modeled probe epochs when batched.
        epochs = {}
        for window in (0.0, 0.01, 0.02):
            run_passes, result = passes(window)
            assert run_passes == 1
            epochs[window] = _probe_epochs(result)
        assert epochs[0.0] >= 3 * epochs[0.02]
        assert result.responses == batched.responses

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


class TestRunCoalescing:
    """A fault-free fleet answers a run's probe requests once, after the
    clock stops; a fleet with a retry plane answers them per batch.  The
    two cadences must agree on everything a response carries."""

    MIXED = RequestMix(measure=0.6, optimize=0.15, schedule=0.1,
                       health=0.15)

    def mixed_trace(self, seed, spec=SPEC, rate_rps=300.0):
        return generate_trace(
            LoadProfile(rate_rps=rate_rps, duration_s=0.4, mix=self.MIXED,
                        seed=seed),
            spec.station_names)

    @pytest.mark.parametrize("seed", [2021, 7])
    def test_per_run_and_per_batch_cadences_agree(self, seed):
        spec = FleetSpec.office(station_count=12)
        trace = self.mixed_trace(seed, spec)
        config = ServiceConfig(batch_window_s=0.01)
        per_run = serve_trace(FleetSession(spec), trace, config)
        per_batch = serve_trace(
            FleetSession(spec, retry_policy=RetryPolicy()), trace, config)
        assert {r.kind for r in per_run.responses} == set(REQUEST_KINDS)

        def shape(result):
            return [(r.request_id, r.kind, r.station, r.status,
                     r.completed_s, r.batch_size, r.detail)
                    for r in result.responses]

        assert shape(per_run) == shape(per_batch)
        assert per_run.metrics == per_batch.metrics
        for run, batch in zip(per_run.responses, per_batch.responses):
            if run.kind == "optimize":
                assert abs(run.value - batch.value) <= 1e-9
            else:
                assert run.value == batch.value
        # And both match the direct fleet calls row by row.
        direct = FleetSession(spec)
        best = np.asarray(direct.optimize_grid(step_v=5.0).best_power_dbm,
                          dtype=float).ravel()
        measures = [(trace.requests[r.request_id], r.value)
                    for r in per_run.responses if r.kind == "measure"]
        expected = direct.measure_aligned(
            [request.vx for request, _ in measures],
            [request.vy for request, _ in measures],
            stations=[request.station for request, _ in measures])
        assert [value for _, value in measures] == expected.tolist()
        for r in per_run.responses:
            if r.kind == "optimize":
                row = direct.station_index(r.station)
                assert abs(r.value - best[row]) <= 1e-9

    def test_fault_free_mixed_run_pass_count(self):
        trace = self.mixed_trace(2021)
        before = probe_evaluations()
        serve_trace(FleetSession(SPEC), trace, ServiceConfig())
        # One measure probe, Algorithm 1's two windows, one epoch per
        # scheduled strategy.
        strategies = {r.strategy for r in trace.requests
                      if r.kind == "schedule"}
        assert probe_evaluations() - before == 3 + len(strategies)

    def test_all_rejected_run_makes_no_pass(self):
        fleet = FleetSession(SPEC)
        fleet.quarantine(*SPEC.station_names)
        trace = self.mixed_trace(7)
        before = probe_evaluations()
        result = serve_trace(fleet, trace, ServiceConfig())
        assert probe_evaluations() - before == 0
        for response in result.responses:
            if response.kind in ("measure", "optimize"):
                assert response.status == "rejected"
                assert response.detail == "quarantined"

    def test_serving_twice_leaks_no_queued_request(self):
        trace = self.mixed_trace(2021)
        service = SurfaceService(FleetSession(SPEC), ServiceConfig())
        first = service.serve_trace(trace)
        # A run that dies on an out-of-range bias leaves nothing queued.
        bad = _trace((Request(request_id=0, kind="measure",
                              station=SPEC.station_names[0], arrival_s=0.0,
                              vx=40.0),))
        with pytest.raises(ValueError):
            service.serve_trace(bad)
        second = service.serve_trace(trace)
        assert second.responses == first.responses
        assert second.metrics == first.metrics

    def test_faulty_run_keeps_the_per_batch_call_sequence(self):
        """Digests pinned from probing each batch as it is served: the
        fault draws, and the response fields with the health counts a
        batch reads after its own probes."""
        trace = self.mixed_trace(17)
        schedule = FaultSchedule(
            FaultSpec(probe_dropout_rate=0.1, probe_error_rate=0.05),
            seed=9)
        fleet = FleetSession(SPEC, fault_schedule=schedule,
                             retry_policy=RetryPolicy(max_attempts=2))
        result = serve_trace(fleet, trace,
                             ServiceConfig(batch_window_s=0.01))
        text = ";".join(
            f"{r.request_id}|{r.kind}|{r.station}|{r.status}|"
            f"{r.completed_s!r}|{r.batch_size}|{r.detail}"
            + (f"|{r.value!r}" if r.kind == "health" else "")
            for r in result.responses)
        assert schedule.trace.digest() == 182828423
        assert zlib.crc32(text.encode()) == 2645549005


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


def _probe_epochs(result):
    """Modeled probe epochs: a batch of ``b`` executed responses is one."""
    return sum(Fraction(1, response.batch_size)
               for response in result.responses
               if response.status != "rejected")
