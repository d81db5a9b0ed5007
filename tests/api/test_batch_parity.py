"""Scalar-vs-grid parity of the vectorized measurement plane.

The acceptance bar for the batched API: a bias-only ``ProbeGrid``
evaluation must agree with the scalar ``received_power_dbm`` within
1e-9 dB across random bias grids in every deployment mode.
"""

import numpy as np
import pytest

from repro.api import LinkBackend, ProbeGrid, ScenarioBuilder
from repro.channel.link import DeploymentMode
from repro.experiments.scenarios import (
    ReflectiveScenario,
    TransmissiveScenario,
    iot_wifi_scenario,
)

PARITY_TOLERANCE_DB = 1e-9


def random_bias_grid(seed, count=200):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 30.0, count), rng.uniform(0.0, 30.0, count)


def bias_powers(link, vx, vy):
    """Received power over an aligned bias-only probe grid."""
    return link.evaluate_grid(ProbeGrid.aligned(vx=vx, vy=vy))


def assert_parity(link, seed):
    vx, vy = random_bias_grid(seed)
    batch = bias_powers(link, vx, vy)
    scalar = np.array([link.received_power_dbm(float(a), float(b))
                       for a, b in zip(vx, vy)])
    assert np.max(np.abs(batch - scalar)) < PARITY_TOLERANCE_DB


class TestDeploymentModeParity:
    def test_transmissive(self):
        assert_parity(TransmissiveScenario().link(), seed=1)

    def test_reflective(self):
        assert_parity(ReflectiveScenario().link(), seed=2)

    def test_no_surface_baseline(self):
        assert_parity(TransmissiveScenario().baseline_link(), seed=3)

    def test_reflective_baseline_keeps_aiming(self):
        assert_parity(ReflectiveScenario().baseline_link(), seed=4)

    def test_multipath_environment(self):
        scenario = TransmissiveScenario(absorber=False, antenna_kind="omni")
        assert_parity(scenario.link(), seed=5)

    def test_commodity_wifi_link(self):
        configuration, _tx, _rx = iot_wifi_scenario(with_surface=True)
        from repro.channel.link import WirelessLink
        assert_parity(WirelessLink(configuration), seed=6)

    @pytest.mark.parametrize("mode", list(DeploymentMode))
    def test_every_mode_covered(self, mode):
        """Every deployment mode has a parity case above."""
        builders = {
            DeploymentMode.NONE: TransmissiveScenario().baseline_link,
            DeploymentMode.TRANSMISSIVE: TransmissiveScenario().link,
            DeploymentMode.REFLECTIVE: ReflectiveScenario().link,
        }
        link = builders[mode]()
        assert link.configuration.deployment is mode
        assert_parity(link, seed=7)


class TestShapesAndBroadcasting:
    def test_grid_shape_preserved(self):
        link = TransmissiveScenario().link()
        vx, vy = np.meshgrid(np.linspace(0, 30, 7), np.linspace(0, 30, 5),
                             indexing="ij")
        powers = bias_powers(link, vx, vy)
        assert powers.shape == (7, 5)

    def test_scalar_inputs_yield_scalar_shape(self):
        link = TransmissiveScenario().link()
        power = bias_powers(link, 10.0, 20.0)
        assert np.shape(power) == ()
        assert float(power) == pytest.approx(
            link.received_power_dbm(10.0, 20.0), abs=PARITY_TOLERANCE_DB)

    def test_broadcasting_row_against_column(self):
        link = TransmissiveScenario().link()
        vx = np.linspace(0, 30, 4)[:, None]
        vy = np.linspace(0, 30, 3)[None, :]
        powers = bias_powers(link, vx, vy)
        assert powers.shape == (4, 3)
        assert powers[2, 1] == pytest.approx(
            link.received_power_dbm(float(vx[2, 0]), float(vy[0, 1])),
            abs=PARITY_TOLERANCE_DB)

    def test_out_of_range_voltages_rejected(self):
        link = TransmissiveScenario().link()
        with pytest.raises(ValueError):
            bias_powers(link, np.array([0.0, 31.0]), np.array([0.0, 0.0]))

    def test_nan_voltages_rejected_like_scalar_path(self):
        link = TransmissiveScenario().link()
        with pytest.raises(ValueError):
            link.received_power_dbm(float("nan"), 5.0)
        with pytest.raises(ValueError):
            bias_powers(link, np.array([np.nan, 5.0]), np.array([5.0, 5.0]))


class TestBackendParity:
    def test_link_backend_matches_link(self):
        link = TransmissiveScenario().link()
        backend = LinkBackend(link)
        vx, vy = random_bias_grid(seed=8, count=32)
        assert np.allclose(
            backend.measure_grid(ProbeGrid.aligned(vx=vx, vy=vy)),
            bias_powers(link, vx, vy))
        assert float(backend.measure_grid(ProbeGrid.aligned(
            vx=5.0, vy=25.0))) == link.received_power_dbm(5.0, 25.0)

    def test_builder_session_parity(self):
        session = (ScenarioBuilder()
                   .with_antennas("directional", rx_orientation_deg=90.0)
                   .transmissive(0.42)
                   .with_surface()
                   .session())
        vx, vy = random_bias_grid(seed=9, count=32)
        batch = session.measure_grid(ProbeGrid.aligned(vx=vx, vy=vy))
        scalar = np.array([session.measure(float(a), float(b))
                           for a, b in zip(vx, vy)])
        assert np.max(np.abs(batch - scalar)) < PARITY_TOLERANCE_DB
