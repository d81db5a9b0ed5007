"""Tests for rotation-angle estimation (paper Sec. 3.4)."""

import math

import pytest

from repro.api import CallableBackend
from repro.units import db_to_linear, linear_to_db
from repro.core.controller import VoltageSweepConfig
from repro.core.rotation_estimation import (
    RotationAngleEstimator,
    RotationEstimate,
    power_slope_per_degree,
)


def synthetic_measure(rotation_for_voltages, floor_db=-35.0):
    """A turntable backend over a synthetic link.

    ``rotation_for_voltages(vx, vy)`` gives the polarization rotation the
    synthetic surface applies.  The transmitter is horizontal; the
    receiver captures cos^2 of the angle between its orientation and the
    rotated wave, floored at ``floor_db``.
    """
    def measure(vx, vy, rx_orientation):
        rotation = rotation_for_voltages(vx, vy)
        mismatch = math.radians(rx_orientation - rotation)
        coupling = max(math.cos(mismatch) ** 2,
                       float(db_to_linear(floor_db)))
        return float(linear_to_db(coupling))
    return CallableBackend(measure)


def linear_rotation_model(vx, vy):
    """Rotation grows with |vx - vy| up to 45 degrees (LLAMA-like)."""
    return 45.0 * abs(vx - vy) / 30.0


class TestFindBestOrientation:
    def test_finds_rotated_wave_orientation(self):
        estimator = RotationAngleEstimator(orientation_step_deg=1.0)
        measure = synthetic_measure(lambda vx, vy: 30.0)
        best = estimator.find_best_orientation(measure, 0.0, 0.0)
        assert best == pytest.approx(30.0, abs=1.0)

    def test_orientation_step_validation(self):
        with pytest.raises(ValueError):
            RotationAngleEstimator(orientation_step_deg=0.0)
        for step in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                RotationAngleEstimator(orientation_step_deg=step)

    def test_dropped_probe_is_never_selected(self):
        """A NaN (dropped) probe at 30 degrees must not win the scan."""
        def measure(vx, vy, rx_orientation):
            if rx_orientation == 30.0:
                return math.nan
            return -abs(rx_orientation - 60.0)

        estimator = RotationAngleEstimator(orientation_step_deg=10.0)
        assert estimator.find_best_orientation(
            CallableBackend(measure), 0.0, 0.0) == 60.0

    def test_ties_pick_the_first_orientation(self):
        estimator = RotationAngleEstimator(orientation_step_deg=45.0)
        assert estimator.find_best_orientation(
            CallableBackend(lambda vx, vy, rx_orientation: 0.0),
            0.0, 0.0) == 0.0


class TestFindExtremeVoltages:
    def test_extremes_bracket_the_rotation_range(self):
        estimator = RotationAngleEstimator(
            sweep_config=VoltageSweepConfig(iterations=1, switches_per_axis=5))
        measure = synthetic_measure(linear_rotation_model)
        v_min, v_max = estimator.find_extreme_voltages(measure, 0.0,
                                                       exhaustive=True,
                                                       step_v=7.5)
        # Receiver aligned with the transmitter: max power at zero rotation
        # (equal voltages), min power at the largest |vx - vy|.
        assert abs(v_max[0] - v_max[1]) == pytest.approx(0.0, abs=1e-9)
        assert abs(v_min[0] - v_min[1]) == pytest.approx(30.0, abs=1e-9)

    def test_dropped_probes_are_left_out_of_the_extremes(self):
        """A NaN sample is neither the weakest nor the strongest."""
        def measure(vx, vy, rx_orientation):
            if (vx, vy) == (0.0, 0.0):
                return math.nan
            return -((vx - 20.0) ** 2 + vy ** 2)

        estimator = RotationAngleEstimator()
        v_min, v_max = estimator.find_extreme_voltages(
            CallableBackend(measure), 0.0, exhaustive=True, step_v=10.0)
        assert v_min == (0.0, 30.0)
        assert v_max == (20.0, 0.0)

    def test_every_probe_dropped_raises(self):
        estimator = RotationAngleEstimator()
        with pytest.raises(ValueError, match="dropped"):
            estimator.find_extreme_voltages(
                CallableBackend(lambda vx, vy, rx_orientation: math.nan),
                0.0, exhaustive=True, step_v=10.0)


class TestFullEstimation:
    def test_estimates_min_and_max_rotation(self):
        estimator = RotationAngleEstimator(
            sweep_config=VoltageSweepConfig(iterations=2, switches_per_axis=5),
            orientation_step_deg=1.0)
        measure = synthetic_measure(linear_rotation_model)
        estimate = estimator.estimate(measure, exhaustive_voltage_sweep=True)
        assert isinstance(estimate, RotationEstimate)
        assert estimate.min_rotation_deg == pytest.approx(0.0, abs=2.0)
        assert estimate.max_rotation_deg == pytest.approx(45.0, abs=3.0)
        assert estimate.rotation_span_deg == pytest.approx(45.0, abs=4.0)

    def test_reference_orientation_matches_tx(self):
        estimator = RotationAngleEstimator(orientation_step_deg=2.0)
        measure = synthetic_measure(lambda vx, vy: 0.0)
        estimate = estimator.estimate(measure)
        assert estimate.reference_orientation_deg == pytest.approx(0.0, abs=2.0)

    def test_ordering_of_min_and_max(self):
        estimator = RotationAngleEstimator(orientation_step_deg=2.0)
        measure = synthetic_measure(linear_rotation_model)
        estimate = estimator.estimate(measure)
        assert estimate.min_rotation_deg <= estimate.max_rotation_deg


class TestPowerSlope:
    def test_negative_slope_for_growing_mismatch(self):
        orientations = [0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0]
        powers = [math.cos(math.radians(angle)) ** 2 for angle in orientations]
        assert power_slope_per_degree(orientations, powers) < 0.0

    def test_positive_slope_detected(self):
        assert power_slope_per_degree([0.0, 10.0, 20.0], [0.1, 0.2, 0.3]) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            power_slope_per_degree([0.0], [1.0])
        with pytest.raises(ValueError):
            power_slope_per_degree([0.0, 1.0], [1.0])
