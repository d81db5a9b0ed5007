# repro-lint: role=src
"""RPR003 fixture: axis literals from the real vocabulary (no findings)."""

from repro.channel.grid import ProbeGrid
from repro.experiments.sweeps import multi_axis_sweep


def sweeps(link, values):
    return multi_axis_sweep("frequency", values, link)


def grids(values):
    return ProbeGrid.product(vx=values, distance=values)


def branches(axis):
    if axis == "distance":
        return 1
    return axis in ("tx_power", "rx_orientation")


def polarization(axis):
    return axis == "x" or axis == "y"
