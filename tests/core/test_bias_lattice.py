"""The exhaustive-search bias lattice never leaves the supported range.

``np.arange(0, 30 + step/2, step)`` keeps a level above 30 V whenever
``30 / step`` has a fractional part of at least one half, and that level
then fails the surface's range check.  :func:`bias_lattice` drops it;
for every step whose ladder already stayed in range the levels are
bit-identical to the plain ``arange``.
"""

import math

import numpy as np
import pytest

from repro.api.fleet import FleetSession, FleetSpec
from repro.core.controller import (
    CentralizedController,
    VoltageSweepConfig,
    bias_lattice,
)
from repro.experiments.sweeps import voltage_grid_sweep

#: The 0.05 V step ladder 0.05 ... 59.95 V, plus steps of 60 V and more.
STEPS = [k / 20 for k in range(1, 1200)] + [60.0, 75.0, 1e6]


def arange_ladder(step_v, low=0.0, high=30.0):
    return np.arange(low, high + 0.5 * step_v, step_v)


class TestBiasLattice:
    def test_bit_identical_wherever_the_arange_ladder_stayed_in_range(self):
        in_range = 0
        for step_v in STEPS:
            ladder = arange_ladder(step_v)
            lattice = bias_lattice(step_v)
            if ladder.max() <= 30.0:
                in_range += 1
                assert lattice.dtype == ladder.dtype
                assert np.array_equal(lattice, ladder), step_v
            else:
                assert np.array_equal(lattice, ladder[:-1]), step_v
        assert 0 < in_range < len(STEPS)

    def test_levels_start_at_low_and_stay_in_range(self):
        for step_v in STEPS:
            lattice = bias_lattice(step_v)
            assert lattice[0] == 0.0, step_v
            assert lattice.max() <= 30.0, step_v
            assert np.all(np.diff(lattice) > 0), step_v

    def test_overshooting_steps_lose_only_the_top_level(self):
        for step_v in (0.7, 1.6, 31.0, 59.0):
            assert arange_ladder(step_v).max() > 30.0
        assert bias_lattice(0.7)[-1] == pytest.approx(29.4)
        assert bias_lattice(1.6)[-1] == pytest.approx(28.8)
        assert bias_lattice(31.0).tolist() == [0.0]
        assert bias_lattice(60.0).tolist() == [0.0]

    def test_configured_bounds(self):
        lattice = bias_lattice(0.7, 5.0, 25.0)
        assert lattice[0] == 5.0 and lattice.max() <= 25.0
        assert lattice.size == 29

    @pytest.mark.parametrize("step_v", [0.0, -1.0, math.nan, math.inf,
                                        -math.inf])
    def test_rejects_non_positive_or_non_finite_steps(self, step_v):
        with pytest.raises(ValueError, match="step must be positive"):
            bias_lattice(step_v)


class TestOvershootingStepNowSearches:
    """Step 0.7 V used to raise "Vx contains voltages outside the
    supported bias range" from every exhaustive search."""

    @pytest.mark.parametrize("strategy", ["fixed-bias", "per-station",
                                          "polarization-reuse"])
    def test_schedule(self, strategy):
        session = FleetSession(FleetSpec.office(4, seed=5))
        result = session.schedule(strategy, bias_search_step_v=0.7)
        for allocation in result.allocations:
            assert all(0.0 <= v <= 30.0 for v in allocation.bias_pair)

    def test_best_bias_per_station_and_compromise(self):
        deployment = FleetSession(FleetSpec.office(3, seed=5)).deployment
        vx, vy, power = deployment.best_bias_per_station(step_v=0.7)
        assert np.all(vx <= 30.0) and np.all(vy <= 30.0)
        assert np.all(np.isfinite(power))
        assert max(deployment.compromise_bias(step_v=0.7)) <= 30.0

    def test_optimize_grid_exhaustive(self):
        session = FleetSession(FleetSpec.office(3, seed=5))
        result = session.optimize_grid(exhaustive=True, step_v=0.7)
        assert np.all(np.asarray(result.best_vx) <= 30.0)
        assert np.all(np.asarray(result.best_vy) <= 30.0)

    def test_full_sweep_with_configured_bounds(self):
        config = VoltageSweepConfig(min_voltage_v=2.0, max_voltage_v=20.0)
        controller = CentralizedController(config)
        session = FleetSession(FleetSpec.office(1, seed=5))
        backend = session.session_for(session.station_names[0]).backend
        result = controller.full_sweep(backend, step_v=0.7)
        assert 2.0 <= result.best_vx <= 20.0
        assert 2.0 <= result.best_vy <= 20.0

    def test_voltage_grid_sweep(self):
        session = FleetSession(FleetSpec.office(1, seed=5))
        link = session.deployment.link_for(session.station_names[0])
        grid = voltage_grid_sweep(link, step_v=1.6)
        assert max(max(pair) for pair in grid) <= 30.0
        assert len(grid) == 19 ** 2
