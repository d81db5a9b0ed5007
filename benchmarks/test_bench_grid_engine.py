"""N-D grid engine vs looping the single-axis sweep (joint scenarios).

The grid engine evaluates a whole frequency x distance (or tx-power x
distance) product grid in one pass of the link budget; the reference
loops a one-axis frequency grid over the second axis with a link
rebuilt per value — the best a single-axis sweep can do for joint
grids.  Gated at >= 3x with parity <= 1e-9 dB.
"""

from dataclasses import replace

import numpy as np

from bench_utils import (
    assert_speedup,
    print_speedup_table,
    run_once,
    speedup_row,
    speedup_rows_as_records,
    timed,
    write_bench_rows,
)
from repro.channel.geometry import LinkGeometry
from repro.channel.grid import ProbeGrid
from repro.channel.link import WirelessLink
from repro.experiments.scenarios import TransmissiveScenario

FREQUENCIES = np.arange(2.40e9, 2.501e9, 0.005e9)
TX_POWERS_DBM = np.arange(-30.0, 30.1, 2.0)
DISTANCES_M = np.linspace(0.24, 0.90, 23)
VOLTAGE_PAIRS = (np.array([0.0, 7.0, 15.0, 30.0]),
                 np.array([30.0, 22.0, 15.0, 0.0]))


def _looped_second_axis(link, axis, values):
    """Reference: one link rebuild + one-axis grid per outer value."""
    vx, vy = VOLTAGE_PAIRS
    rows = []
    for value in values:
        if axis == "tx_power":
            config = replace(link.configuration, tx_power_dbm=float(value))
        else:
            config = replace(link.configuration,
                             geometry=LinkGeometry.transmissive(float(value)))
        point_link = WirelessLink(config)
        rows.append(point_link.evaluate(ProbeGrid.aligned(
            frequency=FREQUENCIES[:, None], vx=vx, vy=vy)))
    return np.stack(rows, axis=1)


def _grid_pass(link, axis, values):
    """One evaluation of the full (frequency, axis, bias) product grid."""
    vx, vy = VOLTAGE_PAIRS
    grid = ProbeGrid.aligned(
        frequency=FREQUENCIES[:, None, None],
        **{axis: np.asarray(values)[:, None]},
        vx=vx, vy=vy)
    return link.evaluate(grid)


def run_grid_engine_comparison():
    rows = []
    for label, axis, values in (
            ("frequency x tx-power", "tx_power", TX_POWERS_DBM),
            ("frequency x distance", "distance", DISTANCES_M)):
        link = TransmissiveScenario().link()
        looped, loop_s = timed(_looped_second_axis, link, axis, values)
        gridded, grid_s = timed(_grid_pass, link, axis, values)
        max_error_db = float(np.max(np.abs(gridded - looped)))
        points = FREQUENCIES.size * len(values) * VOLTAGE_PAIRS[0].size
        rows.append(speedup_row(label, points, loop_s, grid_s, max_error_db))
    return rows


def test_bench_grid_engine(benchmark):
    rows = run_once(benchmark, run_grid_engine_comparison)

    print_speedup_table(
        "N-D grid engine vs looping one-axis frequency grids over the "
        "second axis", rows, row_label="grid", count_label="points",
        slow_label="looped sweep", fast_label="grid engine")

    write_bench_rows(
        "grid engine vs looped sweep",
        speedup_rows_as_records(rows, row_label="grid"),
        meta={"min_speedup_x": 3.0,
              "grid_shape": [int(FREQUENCIES.size), int(TX_POWERS_DBM.size),
                             int(VOLTAGE_PAIRS[0].size)]})

    # Acceptance bar for the grid engine: >= 3x per joint grid.
    assert_speedup(rows, min_speedup=3.0)
