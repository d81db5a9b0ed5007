"""Batched service throughput: coalescing beats per-request probing.

Serving a measure-heavy open-loop trace through ``SurfaceService`` with
a batching window must deliver >= 3x the throughput of the same trace
served unbatched (window 0, one probe epoch per request).  Throughput
is virtual-time requests/second from the service's own cost model, so
the gate is deterministic.  The mechanism is gated twice:

* the modeled probe epochs (one per batch, counted from the responses'
  batch sizes) drop >= 3x, so the win comes from coalescing rather
  than from clock accounting;
* on a fleet whose probes keep state (a retry plane, here with no
  faults) the service probes once per batch, and the budget-engine
  passes drop >= 3x too.  A fault-free fleet answers the whole run's
  measures with one stacked probe at every window.

Every run uses an effectively unbounded queue so admission control
cannot shed load and distort the comparison, and zero-fault parity
against a direct ``FleetSession`` probe is asserted at <= 1e-9 dB.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.api.fleet import FleetSession, FleetSpec
from repro.channel.link import probe_evaluations
from repro.faults import RetryPolicy
from repro.serve import (
    MEASURE_ONLY,
    LoadProfile,
    ServiceConfig,
    generate_trace,
    serve_trace,
)

#: The offered load must saturate the unbatched baseline (~222 rps at
#: the default cost model) hard enough that its makespan overruns the
#: trace by >= 3x, while the batched service (window + full batch of 32
#: per cycle sustains ~1066 rps) still keeps pace with arrivals.
STATIONS = 8
RATE_RPS = 800.0
DURATION_S = 1.0
BATCH_WINDOW_S = 0.01
MIN_THROUGHPUT_SPEEDUP = 3.0
MIN_PROBE_PASS_RATIO = 3.0
PARITY_DB = 1e-9


@pytest.fixture(scope="module")
def spec():
    return FleetSpec.office(station_count=STATIONS)


@pytest.fixture(scope="module")
def trace(spec):
    return generate_trace(
        LoadProfile(rate_rps=RATE_RPS, duration_s=DURATION_S,
                    mix=MEASURE_ONLY, seed=2021),
        spec.station_names)


def _serve(trace, spec, window_s, retry_policy=None):
    """Serve ``trace`` once; returns (result, probe passes)."""
    fleet = FleetSession(spec, retry_policy=retry_policy)
    config = ServiceConfig(batch_window_s=window_s, queue_capacity=100_000)
    before = probe_evaluations()
    result = serve_trace(fleet, trace, config)
    return result, probe_evaluations() - before


def _probe_epochs(result):
    """Modeled probe epochs: a batch of ``b`` executed responses is one."""
    return sum(Fraction(1, response.batch_size)
               for response in result.responses
               if response.status != "rejected")


def _parity_error_db(trace, spec, result):
    """Max |served - direct| over ok measures, in dB."""
    ok = [response for response in result.responses if response.ok]
    by_id = {request.request_id: request for request in trace.requests}
    names = [by_id[response.request_id].station for response in ok]
    vx = [by_id[response.request_id].vx for response in ok]
    vy = [by_id[response.request_id].vy for response in ok]
    direct = FleetSession(spec).measure_aligned(vx, vy, stations=names)
    served = np.asarray([response.value for response in ok])
    return float(np.max(np.abs(served - direct)))


def test_batched_service_throughput(spec, trace):
    unbatched, unbatched_passes = _serve(trace, spec, 0.0)
    batched, batched_passes = _serve(trace, spec, BATCH_WINDOW_S)
    slow, fast = unbatched.metrics, batched.metrics

    # Every request in both runs completed: no shedding, no faults.
    assert fast.ok_count == len(trace)
    # The acceptance bar, on deterministic virtual-time numbers.
    assert fast.throughput_rps / slow.throughput_rps >= MIN_THROUGHPUT_SPEEDUP
    # And the mechanism: coalescing collapses probe epochs, not clocks.
    assert (_probe_epochs(unbatched) / _probe_epochs(batched)
            >= MIN_PROBE_PASS_RATIO)
    # A fault-free fleet answers the whole run with one stacked probe.
    assert unbatched_passes == batched_passes == 1
    assert _parity_error_db(trace, spec, batched) <= PARITY_DB

    # A retry plane keeps state, so the service probes once per batch:
    # there the epochs are budget passes, and they drop >= 3x too.
    per_request, per_request_passes = _serve(trace, spec, 0.0, RetryPolicy())
    per_batch, per_batch_passes = _serve(trace, spec, BATCH_WINDOW_S,
                                         RetryPolicy())
    assert per_batch.responses == batched.responses
    assert per_request_passes == _probe_epochs(per_request)
    assert per_batch_passes == _probe_epochs(per_batch)
    assert per_request_passes / per_batch_passes >= MIN_PROBE_PASS_RATIO
