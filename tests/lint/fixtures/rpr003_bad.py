# repro-lint: role=src
"""RPR003 fixture: misspelled or unknown sweep-axis literals.

Expected findings: 1 sweep-call typo, 1 unknown ProbeGrid keyword,
1 comparison typo, 1 unknown containment member, 1 iteration typo.
"""

from repro.channel.grid import ProbeGrid
from repro.experiments.sweeps import multi_axis_sweep


def sweeps(link, values):
    return multi_axis_sweep("freqency", values, link)


def grids(values):
    return ProbeGrid.product(bandwidth=values)


def branches(axis):
    if axis == "distence":
        return 1
    return axis in ("tx_power", "rx_rotation")


def iterates():
    total = 0
    for axis in ("frequency", "freqency"):
        total += 1
    return total
