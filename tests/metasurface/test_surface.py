"""Tests for the assembled metasurface."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.jones import JonesVector
from repro.units import linear_to_db
from repro.metasurface.design import llama_design
from repro.metasurface.surface import SurfaceMode

voltages = st.floats(min_value=0.0, max_value=30.0)


@pytest.fixture(scope="module")
def ideal_surface():
    """The idealised (simulation) structure used for Table 1 / Figs. 8-11."""
    return llama_design().build(prototype=False)


@pytest.fixture(scope="module")
def prototype_surface():
    """The fabricated prototype with bias derating."""
    return llama_design().build(prototype=True)


class TestTransmissionEfficiency:
    def test_in_band_efficiency_above_minus_5db(self, ideal_surface):
        """Paper Fig. 10/11: the optimized FR4 design stays above about
        -5 dB across the 2.4-2.5 GHz ISM band."""
        for frequency in np.linspace(2.40e9, 2.50e9, 11):
            for excitation in ("x", "y"):
                efficiency = ideal_surface.transmission_efficiency_db(
                    frequency, 8.0, 8.0, excitation)
                assert efficiency > -5.5

    def test_efficiency_rolls_off_out_of_band(self, ideal_surface):
        in_band = ideal_surface.transmission_efficiency_db(2.44e9, 8.0, 8.0)
        out_band = ideal_surface.transmission_efficiency_db(2.0e9, 8.0, 8.0)
        assert in_band - out_band > 8.0

    def test_efficiency_bounded_by_unity(self, ideal_surface):
        assert ideal_surface.transmission_efficiency(2.44e9, 8.0, 8.0) <= 1.0

    def test_x_and_y_curves_differ_slightly(self, ideal_surface):
        x_curve = ideal_surface.transmission_efficiency_db(2.50e9, 8.0, 8.0, "x")
        y_curve = ideal_surface.transmission_efficiency_db(2.50e9, 8.0, 8.0, "y")
        assert x_curve != pytest.approx(y_curve, abs=1e-6)

    def test_excitation_validation(self, ideal_surface):
        with pytest.raises(ValueError):
            ideal_surface.transmission_efficiency(2.44e9, 8.0, 8.0, "circular")

    def test_voltage_validation(self, ideal_surface):
        with pytest.raises(ValueError):
            ideal_surface.transmission_efficiency(2.44e9, -1.0, 8.0)
        with pytest.raises(ValueError):
            ideal_surface.transmission_efficiency(2.44e9, 8.0, 31.0)

    @given(voltages, voltages)
    @settings(max_examples=30)
    def test_surface_is_passive(self, vx, vy):
        surface = llama_design().build(prototype=False)
        for excitation in ("x", "y"):
            assert surface.transmission_efficiency(
                2.44e9, vx, vy, excitation) <= 1.0 + 1e-9


class TestRotation:
    def test_rotation_range_matches_table1(self, ideal_surface):
        """Paper Table 1: rotation between 1.9 and 48.7 degrees over the
        2-15 V simulated range."""
        low, high = ideal_surface.rotation_range_deg(2.44e9)
        assert 0.5 <= low <= 6.0
        assert 40.0 <= high <= 60.0

    def test_rotation_is_half_differential_phase(self, ideal_surface):
        delta = ideal_surface.birefringent.differential_phase_rad(
            2.44e9, 15.0, 2.0)
        assert ideal_surface.rotation_angle_deg(2.44e9, 15.0, 2.0) == \
            pytest.approx(math.degrees(delta) / 2.0)

    def test_equal_voltages_give_small_rotation(self, ideal_surface):
        assert abs(ideal_surface.rotation_angle_deg(2.44e9, 8.0, 8.0)) < 10.0

    def test_rotation_realised_on_transmitted_wave(self, ideal_surface):
        """The Jones matrix actually rotates an incident linear wave by the
        reported angle."""
        rotation = ideal_surface.rotation_angle_deg(2.44e9, 15.0, 2.0)
        incident = JonesVector.horizontal()
        transmitted = ideal_surface.jones_matrix(2.44e9, 15.0, 2.0).apply(incident)
        orientation = transmitted.orientation_deg
        difference = min(abs(orientation - abs(rotation)),
                         abs(orientation - (180.0 - abs(rotation))))
        assert difference < 3.0

    def test_prototype_rotation_over_full_sweep_matches_measured_range(
            self, prototype_surface):
        """Paper Sec. 5.1.1: the prototype rotates 3-45 degrees over its
        0-30 V terminal sweep."""
        low, high = prototype_surface.rotation_range_deg(
            2.44e9, voltage_low_v=0.0, voltage_high_v=30.0)
        assert high == pytest.approx(50.0, abs=10.0)
        assert low < 10.0

    def test_prototype_derating_reduces_2_15v_range(self, ideal_surface,
                                                    prototype_surface):
        ideal_high = ideal_surface.rotation_range_deg(2.44e9)[1]
        prototype_high = prototype_surface.rotation_range_deg(2.44e9)[1]
        assert prototype_high < ideal_high


class TestReflectiveMode:
    def test_reflection_efficiency_bounded(self, prototype_surface):
        assert 0.0 <= prototype_surface.reflection_efficiency(
            2.44e9, 30.0, 0.0) <= 1.0

    def test_reflection_couples_into_orthogonal_polarization(self, ideal_surface):
        """At large differential phase the double traversal converts an
        x-polarized wave substantially into y — the mechanism behind the
        reflective gain of Fig. 22."""
        jones = ideal_surface.reflection_jones_matrix(2.44e9, 15.0, 2.0)
        reflected = jones.apply(JonesVector.horizontal())
        cross_fraction = abs(reflected.y) ** 2 / reflected.intensity
        assert cross_fraction > 0.3

    def test_reflection_voltage_sensitivity_smaller_than_transmissive(
            self, ideal_surface):
        """Paper Sec. 5.2.1: the power spread across the voltage sweep is
        smaller in reflection than in transmission."""
        rx = JonesVector.vertical()
        def coupling(jones):
            out = jones.apply(JonesVector.horizontal())
            return max(out.projection_power(rx), 1e-6)

        voltages = [(2.0, 2.0), (8.0, 8.0), (15.0, 2.0), (2.0, 15.0), (15.0, 15.0)]
        transmissive = [coupling(ideal_surface.jones_matrix(2.44e9, vx, vy))
                        for vx, vy in voltages]
        reflective = [coupling(ideal_surface.reflection_jones_matrix(2.44e9, vx, vy))
                      for vx, vy in voltages]
        def spread(values):
            return float(linear_to_db(max(values) / min(values)))

        assert spread(reflective) < spread(transmissive)

    def test_response_mode_dispatch(self, prototype_surface):
        transmissive = prototype_surface.response(2.44e9, 30.0, 0.0,
                                                  SurfaceMode.TRANSMISSIVE)
        reflective = prototype_surface.response(2.44e9, 30.0, 0.0,
                                                SurfaceMode.REFLECTIVE)
        assert transmissive.efficiency_x != pytest.approx(reflective.efficiency_x)
        assert transmissive.efficiency_x_db <= 0.0
        assert reflective.efficiency_y_db <= 0.0


class TestBookkeeping:
    def test_area(self, prototype_surface):
        assert prototype_surface.area_m2 == pytest.approx(0.48 ** 2)

    def test_standby_power_is_sub_microwatt(self, prototype_surface):
        """Paper: 15 nA leakage means the surface runs off a buffer cap."""
        assert prototype_surface.standby_power_w(30.0) < 1e-6

    def test_standby_power_validation(self, prototype_surface):
        with pytest.raises(ValueError):
            prototype_surface.standby_power_w(-1.0)

    def test_bandpass_loss_validation(self, prototype_surface):
        with pytest.raises(ValueError):
            prototype_surface.bandpass_loss_db(0.0)
        with pytest.raises(ValueError):
            prototype_surface.bandpass_loss_db(2.44e9, axis="z")

    def test_construction_validation(self, prototype_surface):
        from dataclasses import replace
        with pytest.raises(ValueError):
            replace(prototype_surface, selectivity_q=0.0)
        with pytest.raises(ValueError):
            replace(prototype_surface, unit_count=0)
        with pytest.raises(ValueError):
            replace(prototype_surface, reflective_conversion_fraction=1.5)
        with pytest.raises(ValueError):
            replace(prototype_surface, bias_derating=(15.0, 2.0))
        # A detuning at or past the design frequency puts one axis's
        # pass-band centre at or below 0 Hz.
        design_frequency = prototype_surface.design_frequency_hz
        for detuning in (design_frequency, -design_frequency, -5e9,
                         math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="axis detuning"):
                replace(prototype_surface, axis_detuning_hz=detuning)
        for detuning in (0.0, -15e6, 0.5 * design_frequency):
            replace(prototype_surface, axis_detuning_hz=detuning)
