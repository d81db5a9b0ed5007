"""Fleet-stacked scheduling vs per-station ``LinkSession`` loops.

The fleet API evaluates every station's link budget in one NumPy pass
along a leading station axis; the reference is the migration-era idiom
it replaces — one :class:`~repro.api.session.LinkSession` per station,
probed in a Python loop.  The surface response of a bias grid is
station-independent, so the stacked pass computes it once for the whole
fleet while the loop recomputes it per station; the scheduling searches
(compromise-bias utility scan, per-station best-bias scan) are gated at
>= 3x with parity <= 1e-9 dB.
"""

import numpy as np

from bench_utils import assert_speedup, print_speedup_table, speedup_row, timed
from repro.api import FleetSession, FleetSpec, LinkSession, ProbeGrid
from repro.devices.wifi import wifi_rate_for_rssi_mbps

STATION_COUNT = 12
STEP_V = 2.0
LEVELS = np.arange(0.0, 30.0 + 0.5 * STEP_V, STEP_V)
VX_GRID, VY_GRID = np.meshgrid(LEVELS, LEVELS, indexing="ij")
BIAS_GRID = ProbeGrid.aligned(vx=VX_GRID, vy=VY_GRID)


def build_fleet() -> FleetSession:
    return FleetSession(FleetSpec.office(station_count=STATION_COUNT,
                                         seed=42))


def looped_sessions(fleet):
    """The migration-era idiom: one fresh LinkSession per station."""
    deployment = fleet.deployment
    return [
        LinkSession(deployment._configuration(station, with_surface=True))
        for station in deployment.stations
    ]


def looped_grid_probe(fleet):
    """Per-station sessions probing the bias grid in a Python loop."""
    return np.stack([session.measure_grid(BIAS_GRID)
                     for session in looped_sessions(fleet)])


def looped_compromise_utility(fleet):
    """Per-station summed-rate utility scan (the PR 1 scheduler idiom)."""
    utility = np.zeros(VX_GRID.shape)
    for session in looped_sessions(fleet):
        utility += np.asarray(wifi_rate_for_rssi_mbps(
            session.measure_grid(BIAS_GRID)))
    return utility


def looped_best_bias(fleet):
    """Per-station best-bias grid searches in a Python loop."""
    best = []
    for session in looped_sessions(fleet):
        powers = session.measure_grid(BIAS_GRID)
        best.append(float(np.max(powers)))
    return np.asarray(best)


def run_fleet_comparison():
    rows = []
    points = STATION_COUNT * LEVELS.size ** 2

    # Untimed warm-up of both paths (imports, NumPy dispatch, surface
    # response caches of the shared design) so the timed rows compare
    # steady-state costs rather than first-touch overheads.
    warmup = build_fleet()
    looped_grid_probe(warmup)
    warmup.measure_aligned(VX_GRID[None], VY_GRID[None])

    fleet = build_fleet()
    looped, loop_s = timed(looped_grid_probe, fleet)
    stacked, fleet_s = timed(fleet.measure_aligned, VX_GRID[None],
                             VY_GRID[None])
    rows.append(speedup_row(
        f"bias-grid probe ({STATION_COUNT} stations)", points, loop_s,
        fleet_s, float(np.max(np.abs(stacked - looped)))))

    fleet = build_fleet()
    looped_utility, loop_s = timed(looped_compromise_utility, fleet)
    stacked_utility, fleet_s = timed(
        lambda: wifi_rate_for_rssi_mbps(fleet.measure_aligned(
            VX_GRID[None], VY_GRID[None])).sum(axis=0))
    rows.append(speedup_row(
        f"compromise utility scan ({STATION_COUNT} stations)", points,
        loop_s, fleet_s,
        float(np.max(np.abs(stacked_utility - looped_utility)))))

    fleet = build_fleet()
    looped_best, loop_s = timed(looped_best_bias, fleet)
    plan, fleet_s = timed(fleet.best_bias_plan, STEP_V)
    rows.append(speedup_row(
        f"per-station best-bias search ({STATION_COUNT} stations)", points,
        loop_s, fleet_s,
        float(np.max(np.abs(plan.best_power_dbm - looped_best)))))

    return rows


def test_bench_fleet_stacking():
    rows = run_fleet_comparison()

    print_speedup_table(
        "Fleet-stacked scheduling planes vs per-station LinkSession loops",
        rows, row_label="plane", count_label="probes",
        slow_label="session loop", fast_label="fleet-stacked")

    # Acceptance bar for the fleet API: >= 3x per scheduling plane.
    assert_speedup(rows, min_speedup=3.0)

