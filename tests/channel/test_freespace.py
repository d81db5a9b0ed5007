"""Tests for free-space propagation (Friis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.freespace import (
    distance_for_received_power_m,
    free_space_path_loss_db,
    friis_received_power_dbm,
    range_extension_factor,
)


class TestPathLoss:
    def test_known_value_at_2g44_1m(self):
        # FSPL(1 m, 2.44 GHz) = 20 log10(4 pi * 2.44e9 / c) ~ 40.2 dB.
        assert free_space_path_loss_db(1.0, 2.44e9) == pytest.approx(40.2, abs=0.2)

    def test_doubling_distance_adds_6db(self):
        near = free_space_path_loss_db(1.0, 2.44e9)
        far = free_space_path_loss_db(2.0, 2.44e9)
        assert far - near == pytest.approx(6.02, abs=0.01)

    def test_higher_frequency_higher_loss(self):
        assert (free_space_path_loss_db(1.0, 5.8e9) >
                free_space_path_loss_db(1.0, 2.44e9))

    def test_near_field_clamped(self):
        assert free_space_path_loss_db(0.0, 2.44e9) == free_space_path_loss_db(
            0.01, 2.44e9)

    def test_array_input(self):
        losses = free_space_path_loss_db(np.array([0.24, 0.42, 0.60]), 2.44e9)
        assert losses.shape == (3,)
        assert np.all(np.diff(losses) > 0)

    def test_frequency_validation(self):
        with pytest.raises(ValueError):
            free_space_path_loss_db(1.0, 0.0)

    @pytest.mark.parametrize("frequency", [float("nan"), float("inf"),
                                           float("-inf")])
    def test_non_finite_frequency_raises(self, frequency):
        """Before, a NaN frequency returned a NaN loss."""
        with pytest.raises(ValueError, match="frequency must be positive"):
            free_space_path_loss_db(3.0, frequency)
        with pytest.raises(ValueError, match="frequency must be positive"):
            free_space_path_loss_db(3.0, np.array([2.4e9, frequency]))

    @given(st.floats(min_value=0.1, max_value=100.0),
           st.floats(min_value=1e9, max_value=1e10))
    @settings(max_examples=40)
    def test_loss_positive_in_far_field(self, distance, frequency):
        # Restricted to the far field (d >= 10 cm at >= 1 GHz), where the
        # Friis formula is meaningful and the loss is strictly positive.
        assert free_space_path_loss_db(distance, frequency) > 0.0


class TestFriis:
    def test_received_power_budget(self):
        power = friis_received_power_dbm(tx_power_dbm=0.0, tx_gain_dbi=10.0,
                                         rx_gain_dbi=10.0, distance_m=1.0,
                                         frequency_hz=2.44e9)
        assert power == pytest.approx(20.0 - 40.2, abs=0.3)

    def test_extra_loss_subtracts(self):
        base = friis_received_power_dbm(0.0, 0.0, 0.0, 1.0, 2.44e9)
        lossy = friis_received_power_dbm(0.0, 0.0, 0.0, 1.0, 2.44e9,
                                         extra_loss_db=7.0)
        assert base - lossy == pytest.approx(7.0)

    def test_extra_loss_must_be_non_negative(self):
        with pytest.raises(ValueError):
            friis_received_power_dbm(0.0, 0.0, 0.0, 1.0, 2.44e9,
                                     extra_loss_db=-3.0)

    def test_distance_for_received_power_inverts_friis(self):
        distance = distance_for_received_power_m(
            target_rx_power_dbm=-60.0, tx_power_dbm=0.0, tx_gain_dbi=2.0,
            rx_gain_dbi=2.0, frequency_hz=2.44e9)
        realised = friis_received_power_dbm(0.0, 2.0, 2.0, distance, 2.44e9)
        assert realised == pytest.approx(-60.0, abs=0.01)

    def test_distance_validation(self):
        with pytest.raises(ValueError):
            distance_for_received_power_m(-60.0, 0.0, 0.0, 0.0, 0.0)


class TestRangeExtension:
    def test_paper_value_15db_gives_5_6x(self):
        """Paper Sec. 5.1.1: 15 dBm of gain extends range by 5.6x."""
        assert range_extension_factor(15.0) == pytest.approx(5.6, abs=0.1)

    def test_zero_gain_gives_unity(self):
        assert range_extension_factor(0.0) == pytest.approx(1.0)

    def test_negative_gain_shrinks_range(self):
        assert range_extension_factor(-6.0) < 1.0

    @given(st.floats(min_value=0.0, max_value=40.0))
    def test_monotonic(self, gain):
        assert range_extension_factor(gain + 1.0) > range_extension_factor(gain)
