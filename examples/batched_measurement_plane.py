#!/usr/bin/env python3
"""Tour of the batched measurement-plane API (repro.api).

Demonstrates the pieces the API redesign and the N-D grid engine
introduced:

1. :class:`ScenarioBuilder` — a new workload is one chained expression,
2. :class:`LinkSession` — the facade owning the link / rotator / supply
   bundle, with grid probing and cached derived sessions,
3. :class:`MeasurementBackend` — the pluggable data plane, one method
   ``measure_grid(ProbeGrid)``: the same controller runs against the
   vectorized simulation backend or a scalar instrument wrapped in
   :class:`CallableBackend`,
4. ``measure_grid`` / ``optimize_grid`` — whole link-parameter axes
   (frequency, tx power, distance, rx orientation) evaluated and
   optimized in single vectorized passes over a :class:`ProbeGrid`.

Run with::

    python examples/batched_measurement_plane.py
"""

import time

import numpy as np

from repro.api import CallableBackend, LinkBackend, ProbeGrid, ScenarioBuilder
from repro.core.controller import CentralizedController, VoltageSweepConfig


def main() -> None:
    # 1. Fluent scenario construction: antennas -> deployment ->
    #    environment -> surface, then a session in one expression.
    session = (ScenarioBuilder()
               .with_antennas("directional", rx_orientation_deg=90.0)
               .transmissive(distance_m=0.42)
               .with_environment("anechoic")
               .with_surface()
               .with_sweep_config(VoltageSweepConfig(iterations=2,
                                                     switches_per_axis=5))
               .session())

    # 2a. Grid probing: a whole 31 x 31 heatmap in one vectorized pass.
    levels = np.arange(0.0, 31.0, 1.0)
    start = time.perf_counter()
    heatmap = session.measure_grid(ProbeGrid.product(vx=levels, vy=levels))
    batched_s = time.perf_counter() - start
    start = time.perf_counter()
    vx, vy = np.meshgrid(levels, levels, indexing="ij")
    for a, b in zip(vx.ravel()[:50], vy.ravel()[:50]):
        session.measure(float(a), float(b))
    scalar_s = (time.perf_counter() - start) * heatmap.size / 50.0
    best = np.unravel_index(np.argmax(heatmap), heatmap.shape)
    print(f"31 x 31 heatmap sweep  : {batched_s * 1e3:.1f} ms batched "
          f"(scalar loop would take ~{scalar_s * 1e3:.0f} ms)")
    print(f"  best cell            : Vx={levels[best[0]]:.0f} V, "
          f"Vy={levels[best[1]]:.0f} V, {heatmap[best]:.1f} dBm")

    # 2b. The session runs Algorithm 1 and parks the supply at the optimum.
    result = session.optimize()
    print(f"Algorithm 1            : {result.best_power_dbm:.1f} dBm at "
          f"Vx={result.best_vx:.0f} V, Vy={result.best_vy:.0f} V "
          f"({result.probe_count} probes)")
    print(f"  baseline (no surface): {session.baseline_power_dbm():.1f} dBm")
    print(f"  supply parked at     : {session.supply.bias_pair()}")

    # 3. Pluggable backends: the same controller drives the vectorized
    #    link backend or any scalar instrument wrapped as a backend.
    controller = CentralizedController(VoltageSweepConfig(iterations=2,
                                                          switches_per_axis=5))
    fast = controller.optimize(LinkBackend(session.link))
    legacy = controller.optimize(CallableBackend(
        session.link.received_power_dbm))
    print("Backend substitution   : vectorized and wrapped-callable agree -> "
          f"{fast.best_power_dbm:.3f} dBm vs {legacy.best_power_dbm:.3f} dBm")

    # 4. Grid engine: a whole frequency axis in one call — the Fig. 17
    #    experiment is a single vectorized search instead of a
    #    per-frequency rebuild-and-optimize loop.
    frequencies = np.arange(2.40e9, 2.501e9, 0.01e9)
    grid = ProbeGrid.product(frequency=frequencies)
    start = time.perf_counter()
    sweep = session.optimize_grid(grid)
    baseline = session.baseline().measure_grid(grid)
    sweep_s = time.perf_counter() - start
    worst = np.min(sweep.best_power_dbm - baseline)
    print(f"Frequency sweep        : {frequencies.size} points in "
          f"{sweep_s * 1e3:.1f} ms, worst-case gain {worst:.1f} dB "
          "across 2.40-2.50 GHz (paper: > 10 dB)")

    # Bonus: the Sec. 3.4 rotation-angle estimation; each orientation
    # scan is one grid probe over the rx_orientation axis.
    estimate = session.estimate_rotation(orientation_step_deg=6.0)
    print(f"Rotation estimation    : {estimate.min_rotation_deg:.1f} to "
          f"{estimate.max_rotation_deg:.1f} degrees achievable")


if __name__ == "__main__":
    main()
