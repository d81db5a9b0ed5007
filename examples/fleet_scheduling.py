#!/usr/bin/env python3
"""Fleet API end to end: a random home scheduled in stacked NumPy passes.

The paper's Sec. 7 deployment story needs many links, not one: a dense
smart home full of IoT stations in arbitrary polarization orientations,
all served through one shared LLAMA panel.  This example drives the
whole workflow through the declarative fleet API:

1. describe the deployment as a serializable :class:`FleetSpec`
   (and round-trip it through JSON, as a scenario file would),
2. open a :class:`FleetSession` — every probe evaluates *all* stations
   in one NumPy pass along a leading station axis,
3. run stacked Algorithm 1 for every station simultaneously,
4. schedule one TDMA epoch with every strategy and compare,
5. demonstrate polarization access control between two stations.

Run with::

    python examples/fleet_scheduling.py
"""

import numpy as np

from repro.api import FleetSession, FleetSpec
from repro.experiments.reporting import format_table


def main() -> None:
    # 1. A reproducible random home, as plain serializable data.  The
    #    JSON form is what a scenario file (or a fleet controller's
    #    config store) would carry; round-tripping it changes nothing.
    spec = FleetSpec.random_home(station_count=8, seed=7)
    spec = FleetSpec.from_json(spec.to_json())
    print(f"Fleet: {len(spec.stations)} stations on the "
          f"{spec.surface!r} surface (seed {spec.environment_seed})")

    # 2. One session owns the whole fleet.  measure_aligned stacks every
    #    station along the leading axis; a leading 1 shares the bias grid
    #    with every station: shape (stations, |Vx|, |Vy|).
    fleet = FleetSession(spec)
    levels = np.arange(0.0, 30.5, 5.0)
    powers = fleet.measure_aligned(levels[None, :, None], levels[None, None, :])
    print(f"\nStacked probe over a {levels.size}x{levels.size} bias grid: "
          f"shape {powers.shape} (one NumPy pass)")

    # 3. Algorithm 1 for every station at once: one batched probe per
    #    refinement iteration covers all stations' voltage windows.
    optimum = fleet.optimize_grid()
    rows = [
        [name, float(vx), float(vy), float(power)]
        for name, vx, vy, power in zip(
            fleet.station_names, optimum.best_vx, optimum.best_vy,
            optimum.best_power_dbm)
    ]
    print(format_table(
        ["station", "best Vx (V)", "best Vy (V)", "RSSI (dBm)"],
        rows, precision=2,
        title="Stacked Algorithm 1 (all stations per iteration)"))

    # 4. One TDMA epoch under every strategy.
    epoch_s = 300.0
    results = fleet.schedule_all(epoch_duration_s=epoch_s)
    rows = [
        [name, result.total_throughput_mbps, result.worst_station_rate_mbps,
         result.fairness, result.retune_count]
        for name, result in results.items()
    ]
    print(format_table(
        ["scheduler", "net throughput (Mbit/s)",
         "worst station rate (Mbit/s)", "Jain fairness", "retunes/epoch"],
        rows, precision=2,
        title=f"Scheduling strategies over one {epoch_s:.0f} s epoch"))
    groups = fleet.orientation_groups(tolerance_deg=20.0)
    print(f"Orientation groups (20 deg tolerance): {groups}")

    # 5. Access control: serve one station while suppressing another.
    intended, unauthorized = fleet.station_names[0], fleet.station_names[1]
    control = fleet.access_control(intended, unauthorized, step_v=5.0)
    print(f"\nPolarization access control (serve {intended}, "
          f"suppress {unauthorized}):")
    print(f"  bias pair  : Vx={control.bias_pair[0]:.0f} V, "
          f"Vy={control.bias_pair[1]:.0f} V")
    print(f"  isolation  : {control.isolation_db:6.1f} dB "
          f"({control.isolation_improvement_db:+.1f} dB vs no surface)")


if __name__ == "__main__":
    main()
