#!/usr/bin/env python3
"""Open-loop load on the surface-controller service, 200 stations.

The serving layer turns the fleet API into a request/response system:
stations submit typed requests into a bounded queue, the service
coalesces compatible measures inside a batching window (and, with no
fault plane, a whole run's measures into one stacked probe), and
admission control sheds load instead of letting
the queue grow without bound.  This example drives it end to end:

1. a 200-station office fleet under a Poisson measure storm, served
   across batching windows — the capacity curve the ``serve_capacity``
   experiment gates (unbatched saturates and sheds; any window serves
   everything at a multiple of the throughput),
2. a bursty mixed workload (measure/optimize/schedule/health) and the
   queue-depth excursions it causes,
3. the same storm with probe faults injected: requests fail typed,
   the service degrades instead of crashing.

Everything runs on a virtual clock, so the "seconds" below are
deterministic service-model time, not wall-clock.

Run with::

    python examples/serving_load.py
"""

from repro.api.fleet import FleetSession, FleetSpec
from repro.experiments.reporting import format_table
from repro.faults import FaultSchedule, FaultSpec, RetryPolicy
from repro.serve import (
    MEASURE_ONLY,
    LoadProfile,
    RequestMix,
    ServiceConfig,
    generate_trace,
    serve_trace,
)

STATION_COUNT = 200


def main() -> None:
    spec = FleetSpec.office(station_count=STATION_COUNT)

    # 1. Measure storm vs batching window: the capacity curve.
    storm = generate_trace(
        LoadProfile(rate_rps=900.0, duration_s=1.0, mix=MEASURE_ONLY,
                    seed=2021),
        spec.station_names)
    rows = []
    for window_s in (0.0, 0.005, 0.02, 0.05):
        result = serve_trace(
            FleetSession(spec), storm,
            ServiceConfig(batch_window_s=window_s, queue_capacity=256))
        metrics = result.metrics
        rows.append([
            f"{window_s * 1e3:.0f} ms",
            metrics.throughput_rps,
            metrics.latency.p95_s * 1e3,
            metrics.mean_batch_size,
            metrics.rejected_count,
        ])
    print(format_table(
        ["window", "throughput (req/s)", "p95 latency (ms)",
         "mean batch", "shed"],
        rows, precision=1,
        title=f"{len(storm)} probe requests, {STATION_COUNT} stations, "
              "Poisson 900 req/s"))

    # 2. Bursty mixed workload: queue depth breathes with the bursts.
    mixed = generate_trace(
        LoadProfile(rate_rps=600.0, duration_s=2.0, arrival="burst",
                    burst_cycle_s=0.5, burst_fraction=0.3,
                    mix=RequestMix(measure=0.85, optimize=0.03,
                                   schedule=0.02, health=0.10),
                    seed=7),
        spec.station_names)
    result = serve_trace(
        FleetSession(spec), mixed,
        ServiceConfig(batch_window_s=0.02, queue_capacity=512))
    metrics = result.metrics
    kinds = {}
    for response in result.responses:
        kinds[response.kind] = kinds.get(response.kind, 0) + 1
    by_kind = ", ".join(f"{count} {kind}"
                        for kind, count in sorted(kinds.items()))
    print(f"\nBursty mixed load: {metrics.request_count} requests "
          f"({by_kind})")
    print(f"  served {metrics.throughput_rps:.0f} req/s, "
          f"p99 latency {metrics.latency.p99_s * 1e3:.0f} ms, "
          f"peak queue depth {metrics.max_queue_depth}")

    # 3. Faults on: dropouts and impulse noise fail requests typed;
    #    the healthy majority keeps being served.
    schedule = FaultSchedule(
        FaultSpec(probe_dropout_rate=0.05, noise_burst_rate=0.02,
                  noise_burst_db=6.0, probe_error_rate=0.02),
        seed=2021)
    fleet = FleetSession(spec, fault_schedule=schedule,
                         retry_policy=RetryPolicy(max_attempts=3))
    result = serve_trace(fleet, storm,
                         ServiceConfig(batch_window_s=0.02,
                                       queue_capacity=256))
    metrics = result.metrics
    details = {}
    for response in result.responses:
        if response.status == "failed":
            details[response.detail] = details.get(response.detail, 0) + 1
    print(f"\nUnder probe faults: {metrics.ok_count}/"
          f"{metrics.request_count} ok "
          f"(failure rate {metrics.failure_rate:.1%}, "
          f"failures by cause: {details or 'none'})")
    print(f"  fleet health: {fleet.health.probes} probes, "
          f"{fleet.health.retries} retries, "
          f"{fleet.health.total_faults} faults injected")


if __name__ == "__main__":
    main()
