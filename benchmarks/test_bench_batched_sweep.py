"""Batched vs scalar heatmap sweep (the Fig. 15 / Fig. 21 hot path).

The measurement-plane redesign vectorizes the whole Jones/Friis/
multipath budget over bias grids.  This benchmark records the speedup
of the batched path over the historical per-probe Python loop on the
exhaustive 1 V heatmap sweep, and asserts the two paths agree to
numerical precision.
"""

import numpy as np

from bench_utils import assert_speedup, print_speedup_table, speedup_row, timed
from repro.channel.grid import ProbeGrid
from repro.experiments.scenarios import ReflectiveScenario, TransmissiveScenario


def _heatmap_grid(step_v=1.0):
    levels = np.arange(0.0, 30.0 + 0.5 * step_v, step_v)
    vx, vy = np.meshgrid(levels, levels, indexing="ij")
    return vx.ravel(), vy.ravel()


def scalar_loop_sweep(link, vx, vy):
    """The seed implementation: one full link budget per probe."""
    return np.array([link.received_power_dbm(float(a), float(b))
                     for a, b in zip(vx, vy)])


def run_sweep_comparison():
    """Time the scalar loop against the batched path on both layouts."""
    rows = []
    for name, link in (("transmissive", TransmissiveScenario().link()),
                       ("reflective", ReflectiveScenario().link())):
        vx, vy = _heatmap_grid(step_v=1.0)
        scalar, scalar_s = timed(scalar_loop_sweep, link, vx, vy)
        batched, batched_s = timed(link.evaluate_grid,
                                   ProbeGrid.aligned(vx=vx, vy=vy))
        max_error_db = float(np.max(np.abs(batched - scalar)))
        rows.append(speedup_row(name, len(vx), scalar_s, batched_s,
                                max_error_db))
    return rows


def test_bench_batched_sweep():
    rows = run_sweep_comparison()

    print_speedup_table(
        "Batched measurement plane vs scalar loop "
        "(31 x 31 heatmap grid, Fig. 15/21 path)",
        rows, row_label="layout", count_label="probes", fast_label="batched")

    for row in rows:
        assert row[1] == 31 * 31
    # Acceptance bar for the API redesign: >= 5x on the heatmap path.
    assert_speedup(rows, min_speedup=5.0)
