"""Deterministic work counts of the probe protocol.

A spy backend counts ``measure_grid`` calls: the exhaustive sweep is
one call, Algorithm 1 one call per iteration, and every orientation
scan of the rotation estimator one call over its ``rx_orientation``
axis.
"""

import numpy as np
import pytest

from repro.api import LinkBackend
from repro.core.controller import CentralizedController, VoltageSweepConfig
from repro.core.rotation_estimation import RotationAngleEstimator
from repro.experiments.scenarios import TransmissiveScenario


class _Spy:
    """Forwards ``measure_grid`` and records every probed grid."""

    def __init__(self, backend):
        self._backend = backend
        self.grids = []

    def measure_grid(self, grid):
        self.grids.append(grid)
        return self._backend.measure_grid(grid)


@pytest.fixture()
def spy():
    return _Spy(LinkBackend(TransmissiveScenario().link()))


def test_full_sweep_is_one_call(spy):
    result = CentralizedController().full_sweep(spy, step_v=5.0)
    assert len(spy.grids) == 1
    assert spy.grids[0].shape == (result.probe_count,)


@pytest.mark.parametrize("iterations", [1, 2, 4])
def test_coarse_to_fine_is_one_call_per_iteration(spy, iterations):
    config = VoltageSweepConfig(iterations=iterations, switches_per_axis=5)
    CentralizedController(config).coarse_to_fine_sweep(spy)
    assert [grid.shape for grid in spy.grids] == [(25,)] * iterations


def test_orientation_scan_is_one_call(spy):
    estimator = RotationAngleEstimator(orientation_step_deg=3.0)
    estimator.find_best_orientation(spy, 4.0, 26.0)
    assert len(spy.grids) == 1
    grid = spy.grids[0]
    assert grid.shape == (60,)
    np.testing.assert_array_equal(grid.values("rx_orientation"),
                                  np.arange(0.0, 180.0, 3.0))


@pytest.mark.parametrize("exhaustive", [False, True])
def test_estimate_probes_three_scans_around_the_search(spy, exhaustive):
    config = VoltageSweepConfig(iterations=3, switches_per_axis=5)
    estimator = RotationAngleEstimator(sweep_config=config,
                                       orientation_step_deg=10.0)
    estimator.estimate(spy, exhaustive_voltage_sweep=exhaustive)
    searches = 1 if exhaustive else config.iterations
    assert len(spy.grids) == 3 + searches
    scans = [spy.grids[0], spy.grids[-2], spy.grids[-1]]
    assert all(grid.values("rx_orientation").shape == (18,)
               for grid in scans)
    # The voltage search between them pins one receiver orientation.
    assert all(grid.values("rx_orientation").shape == ()
               for grid in spy.grids[1:1 + searches])


def test_pinned_search_matches_probe_grid(spy):
    """The pinned view adds exactly one scalar rx_orientation axis."""
    estimator = RotationAngleEstimator(
        sweep_config=VoltageSweepConfig(iterations=1, switches_per_axis=3))
    estimator.find_extreme_voltages(spy, 30.0)
    (grid,) = spy.grids
    assert sorted(grid.names) == ["rx_orientation", "vx", "vy"]
    assert float(grid.values("rx_orientation")) == 30.0
    assert grid.shape == (9,)
