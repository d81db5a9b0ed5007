"""Tests for the end-to-end link budget (the reproduction's work-horse)."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.antenna import dipole_antenna, directional_antenna, omni_antenna
from repro.channel.geometry import LinkGeometry
from repro.channel.link import DeploymentMode, LinkConfiguration, WirelessLink
from repro.channel.multipath import MultipathEnvironment
from repro.metasurface.design import llama_design


@pytest.fixture(scope="module")
def surface():
    return llama_design().build()


def transmissive_config(surface, rx_orientation=90.0, distance=0.42, **overrides):
    base = LinkConfiguration(
        tx_antenna=directional_antenna(orientation_deg=0.0),
        rx_antenna=directional_antenna(orientation_deg=rx_orientation),
        geometry=LinkGeometry.transmissive(distance),
        metasurface=surface,
        deployment=DeploymentMode.TRANSMISSIVE,
    )
    return replace(base, **overrides) if overrides else base


def reflective_config(surface, surface_distance=0.42, **overrides):
    base = LinkConfiguration(
        tx_antenna=directional_antenna(orientation_deg=0.0),
        rx_antenna=directional_antenna(orientation_deg=90.0),
        geometry=LinkGeometry.reflective(0.70, surface_distance),
        metasurface=surface,
        deployment=DeploymentMode.REFLECTIVE,
        aim_at_surface=True,
    )
    return replace(base, **overrides) if overrides else base


class TestConfiguration:
    def test_requires_surface_for_deployment(self):
        with pytest.raises(ValueError):
            LinkConfiguration(
                tx_antenna=dipole_antenna(),
                rx_antenna=dipole_antenna(),
                geometry=LinkGeometry.transmissive(1.0),
                deployment=DeploymentMode.TRANSMISSIVE,
            )

    def test_without_surface_strips_deployment(self, surface):
        config = transmissive_config(surface)
        baseline = config.without_surface()
        assert baseline.metasurface is None
        assert baseline.deployment is DeploymentMode.NONE

    def test_without_surface_preserves_aiming(self, surface):
        baseline = reflective_config(surface).without_surface()
        assert baseline.aim_at_surface is True

    def test_with_helpers(self, surface):
        config = transmissive_config(surface)
        assert config.with_tx_power_dbm(7.0).tx_power_dbm == 7.0
        assert config.with_frequency_hz(2.41e9).frequency_hz == 2.41e9

    def test_validation(self, surface):
        with pytest.raises(ValueError):
            transmissive_config(surface, frequency_hz=0.0)
        with pytest.raises(ValueError):
            transmissive_config(surface, bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            transmissive_config(surface, noise_figure_db=-1.0)
        with pytest.raises(ValueError):
            transmissive_config(surface, surface_obstruction_db=-1.0)
        with pytest.raises(ValueError):
            transmissive_config(surface, clutter_blocking_db=-1.0)

    @pytest.mark.parametrize("field,value,message", [
        ("frequency_hz", float("nan"), "frequency must be positive and "
                                       "finite"),
        ("frequency_hz", float("inf"), "frequency must be positive and "
                                       "finite"),
        ("bandwidth_hz", float("inf"), "bandwidth must be positive and "
                                       "finite"),
        ("bandwidth_hz", float("nan"), "bandwidth must be positive and "
                                       "finite"),
        ("noise_figure_db", float("nan"), "noise figure must be "
                                          "non-negative and finite"),
        ("noise_figure_db", float("inf"), "noise figure must be "
                                          "non-negative and finite"),
        ("surface_obstruction_db", float("nan"), "surface obstruction"),
        ("surface_obstruction_db", float("inf"), "surface obstruction"),
        ("clutter_blocking_db", float("nan"), "clutter blocking"),
        ("clutter_blocking_db", float("inf"), "clutter blocking"),
        ("tx_power_dbm", float("nan"), "transmit power must be finite"),
        ("tx_power_dbm", float("-inf"), "transmit power must be finite"),
        ("interference_floor_dbm", float("nan"), "interference floor must "
                                                 "be finite"),
        ("interference_floor_dbm", float("-inf"), "interference floor must "
                                                  "be finite"),
    ])
    def test_non_finite_numbers_raise(self, surface, field, value, message):
        """Before, a NaN frequency or power gave NaN power and an
        infinite frequency a ZeroDivisionError inside the pass."""
        with pytest.raises(ValueError, match=message):
            transmissive_config(surface, **{field: value})

    def test_finite_edges_stay_valid(self, surface):
        config = transmissive_config(
            surface, noise_figure_db=0.0, surface_obstruction_db=0.0,
            clutter_blocking_db=0.0, tx_power_dbm=-30.0,
            interference_floor_dbm=-90.0)
        assert WirelessLink(config).received_power_dbm(5.0, 9.0) < 0.0


class TestMismatchBaseline:
    def test_mismatch_costs_10_to_15_db(self):
        """Paper Fig. 2: orthogonal orientations lose ~10 dB on cheap
        dipoles."""
        matched = LinkConfiguration(
            tx_antenna=dipole_antenna(), rx_antenna=dipole_antenna(),
            geometry=LinkGeometry.transmissive(3.0), tx_power_dbm=14.0)
        mismatched = replace(matched,
                             rx_antenna=dipole_antenna(orientation_deg=90.0))
        penalty = (WirelessLink(matched).received_power_dbm() -
                   WirelessLink(mismatched).received_power_dbm())
        assert 8.0 <= penalty <= 16.0

    def test_power_decays_with_distance(self):
        powers = []
        for distance in (1.0, 2.0, 4.0):
            config = LinkConfiguration(
                tx_antenna=dipole_antenna(), rx_antenna=dipole_antenna(),
                geometry=LinkGeometry.transmissive(distance))
            powers.append(WirelessLink(config).received_power_dbm())
        assert powers[0] > powers[1] > powers[2]

    def test_power_scales_with_tx_power(self, surface):
        low = WirelessLink(transmissive_config(surface, tx_power_dbm=0.0))
        high = WirelessLink(transmissive_config(surface, tx_power_dbm=10.0))
        assert (high.received_power_dbm(8, 8) -
                low.received_power_dbm(8, 8)) == pytest.approx(10.0, abs=0.01)


class TestTransmissiveDeployment:
    def test_best_voltage_recovers_mismatch(self, surface):
        """Paper Fig. 16: up to ~15 dB improvement in the mismatch setup."""
        link = WirelessLink(transmissive_config(surface))
        baseline = link.baseline().received_power_dbm()
        best = max(link.received_power_dbm(vx, vy)
                   for vx in range(0, 31, 5) for vy in range(0, 31, 5))
        assert 10.0 <= best - baseline <= 25.0

    def test_matched_link_not_destroyed_by_surface(self, surface):
        """With matched endpoints the surface should cost only its
        insertion loss at the best (near-zero-rotation) bias point."""
        link = WirelessLink(transmissive_config(surface, rx_orientation=0.0))
        baseline = link.baseline().received_power_dbm()
        best = max(link.received_power_dbm(vx, vy)
                   for vx in range(0, 31, 5) for vy in range(0, 31, 5))
        assert best >= baseline - 6.0

    def test_voltage_changes_received_power(self, surface):
        link = WirelessLink(transmissive_config(surface))
        powers = {link.received_power_dbm(vx, vy)
                  for vx in (0.0, 15.0, 30.0) for vy in (0.0, 15.0, 30.0)}
        assert len(powers) > 3

    def test_gain_over_baseline_helper(self, surface):
        link = WirelessLink(transmissive_config(surface))
        assert link.power_gain_over_baseline_db(30.0, 0.0) == pytest.approx(
            link.received_power_dbm(30.0, 0.0) -
            link.baseline().received_power_dbm())

    def test_report_fields_consistent(self, surface):
        link = WirelessLink(transmissive_config(surface))
        report = link.evaluate(30.0, 0.0)
        assert report.snr_db == pytest.approx(
            report.received_power_dbm - report.noise_power_dbm)
        assert report.spectral_efficiency_bps_hz > 0.0
        assert report.engineered_path_power_dbm <= report.received_power_dbm + 3.0

    @given(st.floats(min_value=0.0, max_value=30.0),
           st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=20, deadline=None)
    def test_received_power_finite_for_all_voltages(self, vx, vy):
        surface = llama_design().build()
        link = WirelessLink(transmissive_config(surface))
        power = link.received_power_dbm(vx, vy)
        assert -150.0 < power < 30.0


class TestReflectiveDeployment:
    def test_reflective_gain_positive(self, surface):
        """Paper Fig. 22: up to ~17 dB improvement in reflection."""
        link = WirelessLink(reflective_config(surface))
        baseline = link.baseline().received_power_dbm()
        best = max(link.received_power_dbm(vx, vy)
                   for vx in range(0, 31, 5) for vy in range(0, 31, 5))
        assert best - baseline > 8.0

    def test_direct_path_suppressed_by_aiming(self, surface):
        aimed = WirelessLink(reflective_config(surface)).baseline()
        facing = WirelessLink(
            replace(reflective_config(surface), aim_at_surface=False)).baseline()
        assert aimed.received_power_dbm() < facing.received_power_dbm()

    def test_moving_surface_away_reduces_best_power(self, surface):
        near = WirelessLink(reflective_config(surface, surface_distance=0.24))
        far = WirelessLink(reflective_config(surface, surface_distance=0.66))
        best_near = max(near.received_power_dbm(vx, vy)
                        for vx in range(0, 31, 10) for vy in range(0, 31, 10))
        best_far = max(far.received_power_dbm(vx, vy)
                       for vx in range(0, 31, 10) for vy in range(0, 31, 10))
        assert best_near > best_far


class TestEnvironmentEffects:
    def test_multipath_raises_mismatched_baseline(self, surface):
        anechoic = transmissive_config(surface).without_surface()
        laboratory = replace(anechoic,
                             environment=MultipathEnvironment.laboratory(seed=2))
        assert (WirelessLink(laboratory).received_power_dbm() >
                WirelessLink(anechoic).received_power_dbm())

    def test_clutter_blocking_reduces_clutter_with_surface(self, surface):
        config = replace(transmissive_config(surface),
                         environment=MultipathEnvironment.laboratory(seed=2))
        blocked = WirelessLink(config)
        unblocked = WirelessLink(replace(config, clutter_blocking_db=0.0))
        assert blocked.evaluate(8, 8).clutter_power_dbm < \
            unblocked.evaluate(8, 8).clutter_power_dbm

    def test_interference_floor_raises_noise(self, surface):
        config = transmissive_config(surface)
        with_floor = replace(config, interference_floor_dbm=-60.0)
        assert WirelessLink(with_floor).noise_power_dbm() == pytest.approx(-60.0)
        assert WirelessLink(config).noise_power_dbm() < -100.0

    def test_directional_antenna_rejects_clutter_better_than_omni(self, surface):
        lab = MultipathEnvironment.laboratory(seed=6)
        directional = LinkConfiguration(
            tx_antenna=directional_antenna(), rx_antenna=directional_antenna(
                orientation_deg=90.0),
            geometry=LinkGeometry.transmissive(0.42), environment=lab)
        omni = LinkConfiguration(
            tx_antenna=omni_antenna(), rx_antenna=omni_antenna(orientation_deg=90.0),
            geometry=LinkGeometry.transmissive(0.42), environment=lab)
        directional_report = WirelessLink(directional).evaluate()
        omni_report = WirelessLink(omni).evaluate()
        # Clutter relative to the engineered path should be lower for the
        # directional antenna.
        directional_margin = (directional_report.engineered_path_power_dbm -
                              directional_report.clutter_power_dbm)
        omni_margin = (omni_report.engineered_path_power_dbm -
                       omni_report.clutter_power_dbm)
        assert directional_margin > omni_margin
