"""Behaviour pins of the serving plane across arrivals, planes and windows.

Each run's responses (id, kind, station, status, ``repr`` of value and
completion time, batch size, detail) and its full
:class:`~repro.serve.metrics.ServiceMetrics` (latency summary and both
queue-depth series included) are reduced to CRC32 digests pinned from
the request-object service loop, so a rework of the loop's bookkeeping
has to reproduce every field bit for bit.  The runs cover the three
arrival processes, three planes (fault-free, a fault schedule without
retries, retries without faults) and three coalescing windows, each
with one quarantined station and a queue small enough to shed under
load; an all-zero-cost config runs the worker through the clock's
zero-delay ready queue.
"""

import itertools
import zlib

import pytest

from repro.api.fleet import FleetSession, FleetSpec
from repro.faults import FaultSchedule, FaultSpec, RetryPolicy
from repro.serve import (
    LoadProfile,
    RequestMix,
    ServiceConfig,
    ServiceMetrics,
    generate_trace,
    serve_trace,
)

SPEC = FleetSpec.office(station_count=6, seed=4)
MIX = RequestMix(measure=0.7, optimize=0.1, schedule=0.08, health=0.12)
ZERO_COST = dict(batch_window_s=0.0, probe_epoch_cost_s=0.0,
                 point_cost_s=0.0, optimize_cost_s=0.0, schedule_cost_s=0.0,
                 health_cost_s=0.0)

#: ``case id -> (response digest, metrics digest)``.
PINS = {
    "poisson-bare-0": (1058504247, 2169581464),
    "poisson-bare-0.005": (3976851823, 252070939),
    "poisson-bare-0.01": (3411710140, 25264203),
    "poisson-faults-0": (259553210, 2168696806),
    "poisson-faults-0.005": (3258955008, 342326875),
    "poisson-faults-0.01": (1905465566, 4088609513),
    "poisson-retry-0": (1058504247, 2169581464),
    "poisson-retry-0.005": (3976851823, 252070939),
    "poisson-retry-0.01": (3411710140, 25264203),
    "uniform-bare-0": (1945140229, 3146009169),
    "uniform-bare-0.005": (671460496, 2096573091),
    "uniform-bare-0.01": (2326788848, 3828197268),
    "uniform-faults-0": (363044084, 2014271467),
    "uniform-faults-0.005": (1162758236, 2758102976),
    "uniform-faults-0.01": (1255705394, 971898057),
    "uniform-retry-0": (1945140229, 3146009169),
    "uniform-retry-0.005": (671460496, 2096573091),
    "uniform-retry-0.01": (2326788848, 3828197268),
    "burst-bare-0": (304513118, 3898215684),
    "burst-bare-0.005": (888765675, 3253053545),
    "burst-bare-0.01": (2817822364, 290576413),
    "burst-faults-0": (1143555608, 3685453107),
    "burst-faults-0.005": (1514858572, 296012603),
    "burst-faults-0.01": (2929696861, 3344605849),
    "burst-retry-0": (304513118, 3898215684),
    "burst-retry-0.005": (888765675, 3253053545),
    "burst-retry-0.01": (2817822364, 290576413),
    "burst-bare-zero-cost": (303254931, 1370022959),
    "burst-faults-zero-cost": (711597474, 4156608349),
    "burst-retry-zero-cost": (303254931, 1370022959),
}


def _fleet(plane):
    if plane == "faults":
        schedule = FaultSchedule(
            FaultSpec(probe_dropout_rate=0.1, probe_error_rate=0.05,
                      noise_burst_rate=0.1), seed=9)
        fleet = FleetSession(SPEC, fault_schedule=schedule)
    elif plane == "retry":
        fleet = FleetSession(SPEC, retry_policy=RetryPolicy(max_attempts=2))
    else:
        fleet = FleetSession(SPEC)
    fleet.quarantine(SPEC.station_names[-1])
    return fleet


def _run(case):
    arrival, plane, window = case.split("-", 2)
    profile = LoadProfile(rate_rps=300.0, duration_s=0.3, arrival=arrival,
                          mix=MIX, seed=31, burst_cycle_s=0.1)
    trace = generate_trace(profile, SPEC.station_names)
    if window == "zero-cost":
        config = ServiceConfig(queue_capacity=12, **ZERO_COST)
    else:
        config = ServiceConfig(batch_window_s=float(window), queue_capacity=12)
    return serve_trace(_fleet(plane), trace, config)


def _digests(result):
    text = ";".join(
        f"{r.request_id}|{r.kind}|{r.station}|{r.status}|{r.value!r}|"
        f"{r.completed_s!r}|{r.batch_size}|{r.detail}"
        for r in result.responses)
    return (zlib.crc32(text.encode()),
            zlib.crc32(repr(result.metrics).encode()))


def test_cases_cover_every_arrival_plane_and_window():
    expected = {f"{arrival}-{plane}-{window}" for arrival, plane, window
                in itertools.product(("poisson", "uniform", "burst"),
                                     ("bare", "faults", "retry"),
                                     ("0", "0.005", "0.01"))}
    assert expected < set(PINS)


@pytest.mark.parametrize("case", sorted(PINS))
def test_run_matches_its_pins(case):
    result = _run(case)
    metrics = result.metrics
    assert _digests(result) == PINS[case]
    assert ServiceMetrics.from_responses(
        result.responses,
        zip(metrics.queue_depth_times_s, metrics.queue_depths)) == metrics


def test_pinned_runs_shed_quarantine_and_fail():
    """The pinned set reaches every response path it is meant to pin."""
    details = set()
    for case in ("burst-bare-0.01", "burst-faults-0.005",
                 "burst-bare-zero-cost"):
        details.update(r.detail for r in _run(case).responses)
    assert {"", "queue-full", "quarantined", "probe-dropout",
            "ProbeFaultError"} <= details
