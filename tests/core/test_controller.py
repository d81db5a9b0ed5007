"""Tests for the centralized controller (paper Algorithm 1)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.backend import CallableBackend
from repro.core.controller import (
    CentralizedController,
    VoltageSweepConfig,
)


def quadratic_power_surface(best_vx, best_vy, scale=0.05):
    """A smooth synthetic power landscape with a single optimum."""
    def measure(vx, vy):
        return -scale * ((vx - best_vx) ** 2 + (vy - best_vy) ** 2)
    return CallableBackend(measure)


#: A flat power landscape: every probe ties at 0 dBm.
FLAT = CallableBackend(lambda vx, vy: 0.0)


class TestVoltageSweepConfig:
    def test_paper_defaults(self):
        config = VoltageSweepConfig()
        assert config.iterations == 2
        assert config.switches_per_axis == 5
        assert config.min_voltage_v == 0.0
        assert config.max_voltage_v == 30.0

    def test_probe_count_is_n_t_squared(self):
        config = VoltageSweepConfig(iterations=2, switches_per_axis=5)
        assert config.probe_count == 50

    def test_estimated_duration_matches_paper_formula(self):
        # Paper: time cost in the nth iteration is 0.02 * N * T^2.
        config = VoltageSweepConfig(iterations=2, switches_per_axis=5)
        assert config.estimated_duration_s == pytest.approx(0.02 * 2 * 25)

    def test_validation(self):
        with pytest.raises(ValueError):
            VoltageSweepConfig(iterations=0)
        with pytest.raises(ValueError):
            VoltageSweepConfig(switches_per_axis=1)
        with pytest.raises(ValueError):
            VoltageSweepConfig(min_voltage_v=10.0, max_voltage_v=5.0)
        with pytest.raises(ValueError):
            VoltageSweepConfig(switch_interval_s=0.0)
        for field in ("min_voltage_v", "max_voltage_v", "switch_interval_s"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="finite"):
                    VoltageSweepConfig(**{field: value})
        for field in ("iterations", "switches_per_axis"):
            for value in (2.5, 3.0, True, "3"):
                with pytest.raises(TypeError, match="integer"):
                    VoltageSweepConfig(**{field: value})


class TestFullSweep:
    def test_finds_grid_optimum(self):
        controller = CentralizedController()
        result = controller.full_sweep(quadratic_power_surface(12.0, 18.0),
                                       step_v=1.0)
        assert result.best_vx == pytest.approx(12.0)
        assert result.best_vy == pytest.approx(18.0)

    def test_probe_count_for_one_volt_step(self):
        controller = CentralizedController()
        result = controller.full_sweep(FLAT, step_v=1.0)
        assert result.probe_count == 31 * 31

    @pytest.mark.parametrize("step_v", [5.0, 0.7, 1.0, 7.0])
    def test_duration_scales_with_probe_count(self, step_v):
        controller = CentralizedController()
        result = controller.full_sweep(CallableBackend(lambda vx, vy: 0.0),
                                       step_v=step_v)
        assert result.duration_s == pytest.approx(result.probe_count * 0.02)
        # The prediction counts the same lattice the sweep probes.
        assert controller.full_sweep_duration_s(step_v) == result.duration_s

    @pytest.mark.parametrize("step_v", [0.0, math.inf, math.nan])
    def test_rejects_non_positive_step(self, step_v):
        controller = CentralizedController()
        with pytest.raises(ValueError, match="positive and finite"):
            controller.full_sweep(CallableBackend(lambda vx, vy: 0.0),
                                  step_v=step_v)
        with pytest.raises(ValueError, match="positive and finite"):
            controller.full_sweep_duration_s(step_v)

    def test_axis_scan_duration_close_to_30s(self):
        """Paper: a full 1 V-step scan takes ~30 s at 50 Hz switching."""
        controller = CentralizedController()
        # 31 levels per axis; scanning each axis sequentially costs about
        # 31 * 31 * 0.02 = 19.2 s in 2-D, and the paper's per-axis framing
        # lands near 30 s; both are prohibitive for real-time operation.
        assert controller.full_sweep_duration_s(step_v=1.0) > 15.0


class TestCoarseToFineSweep:
    def test_finds_optimum_of_smooth_surface(self):
        controller = CentralizedController(
            VoltageSweepConfig(iterations=2, switches_per_axis=5))
        result = controller.coarse_to_fine_sweep(
            quadratic_power_surface(22.0, 7.0))
        assert result.best_vx == pytest.approx(22.0, abs=2.0)
        assert result.best_vy == pytest.approx(7.0, abs=2.0)

    def test_uses_configured_probe_budget(self):
        config = VoltageSweepConfig(iterations=2, switches_per_axis=5)
        controller = CentralizedController(config)
        result = controller.coarse_to_fine_sweep(FLAT)
        assert result.probe_count == config.probe_count

    def test_faster_than_full_sweep(self):
        controller = CentralizedController()
        fast = controller.coarse_to_fine_sweep(quadratic_power_surface(5, 25))
        slow = controller.full_sweep(quadratic_power_surface(5, 25), step_v=1.0)
        assert fast.duration_s < slow.duration_s / 10.0

    def test_respects_voltage_bounds(self):
        controller = CentralizedController()
        result = controller.coarse_to_fine_sweep(quadratic_power_surface(0, 30))
        for sample in result.samples:
            assert 0.0 <= sample.vx <= 30.0
            assert 0.0 <= sample.vy <= 30.0

    def test_second_iteration_refines_first(self):
        controller = CentralizedController(
            VoltageSweepConfig(iterations=2, switches_per_axis=5))
        result = controller.coarse_to_fine_sweep(
            quadratic_power_surface(13.0, 17.0))
        first_iteration_best = max(
            (s for s in result.samples if s.iteration == 1),
            key=lambda s: s.power_dbm)
        assert result.best_power_dbm >= first_iteration_best.power_dbm

    @given(st.floats(min_value=0.0, max_value=30.0),
           st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=25, deadline=None)
    def test_near_optimal_for_smooth_surfaces(self, vx, vy):
        controller = CentralizedController(
            VoltageSweepConfig(iterations=3, switches_per_axis=5))
        result = controller.coarse_to_fine_sweep(
            quadratic_power_surface(vx, vy, scale=0.02))
        optimum = 0.0
        assert result.best_power_dbm >= optimum - 0.4

    def test_strategy_labels(self):
        controller = CentralizedController()
        assert controller.coarse_to_fine_sweep(
            FLAT).strategy == "coarse-to-fine"
        assert controller.full_sweep(
            FLAT, step_v=10.0).strategy == "full"

    def test_optimize_dispatch(self):
        controller = CentralizedController()
        falling = CallableBackend(lambda vx, vy: -vx - vy)
        fast = controller.optimize(falling)
        exhaustive = controller.optimize(falling, exhaustive=True,
                                         step_v=10.0)
        assert fast.strategy == "coarse-to-fine"
        assert exhaustive.strategy == "full"
        assert fast.best_vx == pytest.approx(0.0)
        assert exhaustive.best_vx == pytest.approx(0.0)


class TestSweepResult:
    def test_power_grid_keeps_best_value(self):
        controller = CentralizedController(
            VoltageSweepConfig(iterations=2, switches_per_axis=3))
        result = controller.coarse_to_fine_sweep(quadratic_power_surface(15, 15))
        grid = result.power_grid()
        assert len(grid) <= result.probe_count
        assert max(grid.values()) == pytest.approx(result.best_power_dbm)

    def test_power_range(self):
        controller = CentralizedController(
            VoltageSweepConfig(iterations=1, switches_per_axis=4))
        result = controller.coarse_to_fine_sweep(
            CallableBackend(lambda vx, vy: vx + vy))
        assert result.power_range_db == pytest.approx(60.0)
