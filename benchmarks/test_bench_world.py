"""Batched world-timeline gate: one (T, N) probe beats the scalar loop.

The acceptance bar from the issue: evaluating a trace-driven
``WorldTimeline`` through the batched ``(T, N)`` ``ProbeGrid`` pass
must run >= 3x faster than the scalar per-``(epoch, station)``
reference loop, at <= 1e-9 dB parity.  Both paths share the physics —
``evaluate_reference`` builds each probe cell one scalar at a time
while ``evaluate`` stacks the whole timeline into one aligned grid —
so the gate proves the time axis rides the existing vectorized link
engine rather than multiplying scalar probes.
"""

import numpy as np

from bench_utils import timed
from repro.api.fleet import FleetSpec
from repro.world import MobilityTrace, RotationTrace, WorldTimeline

STATIONS = 8
DURATION_S = 12.0
TIME_STEP_S = 0.25
MIN_SPEEDUP = 3.0
PARITY_DB = 1e-9


def build_timeline():
    spec = FleetSpec.office(station_count=STATIONS)
    names = spec.station_names
    mobility = {name: MobilityTrace.random_waypoint(
        2021, name, duration_s=DURATION_S) for name in names[:4]}
    rotation = {name: RotationTrace.random_walk(
        2021, name, duration_s=DURATION_S) for name in names[4:]}
    return WorldTimeline(spec, mobility=mobility, rotation=rotation,
                         duration_s=DURATION_S, time_step_s=TIME_STEP_S)


def run_world_comparison():
    timeline = build_timeline()
    # Warm the deployment's cached ensembles so neither path pays
    # one-time construction costs inside its timing window.
    timeline.evaluate(vx=12.0, vy=18.0)

    batched, fast_s = timed(timeline.evaluate, vx=12.0, vy=18.0)
    reference, slow_s = timed(timeline.evaluate_reference,
                              vx=12.0, vy=18.0)
    parity_db = float(np.max(np.abs(batched - reference)))
    cells = int(np.prod(batched.shape))
    return {
        "label": (f"{timeline.epoch_count} epochs x {STATIONS} stations "
                  "batched vs scalar loop"),
        "epochs": timeline.epoch_count,
        "stations": STATIONS,
        "probe_cells": cells,
        "slow_ms": slow_s * 1e3,
        "fast_ms": fast_s * 1e3,
        "speedup_x": slow_s / fast_s,
        "max_parity_error_db": parity_db,
    }


def test_bench_batched_world_timeline():
    row = run_world_comparison()

    print(f"\nworld timeline: {row['probe_cells']} probe cells, "
          f"{row['slow_ms']:.1f} ms scalar vs {row['fast_ms']:.1f} ms "
          f"batched ({row['speedup_x']:.1f}x, parity "
          f"{row['max_parity_error_db']:.1e} dB)")

    assert row["probe_cells"] == row["epochs"] * row["stations"], row
    # The issue's acceptance bar: one stacked pass, not T*N scalar probes.
    assert row["speedup_x"] >= MIN_SPEEDUP, row
    assert row["max_parity_error_db"] <= PARITY_DB, row
