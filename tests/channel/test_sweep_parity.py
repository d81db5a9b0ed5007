"""Parity suite for single-axis sweeps on the grid engine.

Pins the vectorized paths — one-axis ``WirelessLink.evaluate`` grids,
the grid-native controller searches over one axis and the batched noisy
receiver — against the scalar per-point loops (a fresh link per axis
value via ``dataclasses.replace``) to <= 1e-9 dB, across all sweep
axes, both deployment modes and both environments.  Also pins the caching
contract (frozen configurations, invalidation-free field caches) and
the first-maximum / NaN semantics of the batched searches.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.api.backend import (
    CallableBackend,
    LinkBackend,
    ReceiverSweepBackend,
)
from repro.channel.grid import ProbeGrid
from repro.channel.link import (
    SWEEP_AXES,
    DeploymentMode,
    LinkGeometry,
    WirelessLink,
)
from repro.core.controller import CentralizedController, VoltageSweepConfig
from repro.experiments.scenarios import ReflectiveScenario, TransmissiveScenario
from repro.experiments.sweeps import (
    comparison_sweep,
    multi_axis_sweep,
    sweep_capacity,
)
from repro.radio.transceiver import SimulatedReceiver

TOLERANCE_DB = 1e-9

AXIS_VALUES = {
    "frequency": np.arange(2.40e9, 2.501e9, 0.02e9),
    "tx_power": np.array([-27.0, -17.0, -7.0, 0.0, 13.0, 30.0]),
    "distance": np.array([0.24, 0.30, 0.42, 0.54, 0.66]),
    "rx_orientation": np.arange(0.0, 181.0, 30.0),
    "tx_orientation": np.arange(0.0, 181.0, 30.0),
}

BIAS_PAIRS = [(0.0, 0.0), (7.0, 22.0), (30.0, 30.0)]


def _scenarios():
    return [
        ("transmissive-anechoic", TransmissiveScenario(absorber=True)),
        ("transmissive-multipath", TransmissiveScenario(absorber=False)),
        ("reflective-anechoic", ReflectiveScenario(absorber=True)),
        ("reflective-multipath", ReflectiveScenario(absorber=False)),
    ]


def _scalar_link_at(link, axis, value):
    """The scalar reference: a fresh link with the axis value replaced."""
    config = link.configuration
    if axis == "frequency":
        return WirelessLink(replace(config, frequency_hz=float(value)))
    if axis == "tx_power":
        return WirelessLink(replace(config, tx_power_dbm=float(value)))
    if axis == "distance":
        if config.aim_at_surface or config.deployment is DeploymentMode.REFLECTIVE:
            geometry = LinkGeometry.reflective(
                config.geometry.direct_distance_m, float(value))
        else:
            geometry = LinkGeometry.transmissive(float(value))
        return WirelessLink(replace(config, geometry=geometry))
    if axis == "rx_orientation":
        return WirelessLink(replace(
            config, rx_antenna=config.rx_antenna.rotated(float(value))))
    if axis == "tx_orientation":
        return WirelessLink(replace(
            config, tx_antenna=config.tx_antenna.rotated(float(value))))
    raise AssertionError(axis)


class TestSweepAxisParity:
    """One-axis grids vs scalar per-point link rebuilds."""

    @pytest.mark.parametrize("axis", SWEEP_AXES)
    @pytest.mark.parametrize("name,scenario", _scenarios())
    def test_with_surface_parity(self, axis, name, scenario):
        link = scenario.link()
        values = AXIS_VALUES[axis]
        for vx, vy in BIAS_PAIRS:
            vectorized = link.evaluate(
                ProbeGrid.aligned(**{axis: values}, vx=vx, vy=vy))
            scalar = np.array([
                _scalar_link_at(link, axis, value).received_power_dbm(vx, vy)
                for value in values])
            assert np.max(np.abs(vectorized - scalar)) <= TOLERANCE_DB

    @pytest.mark.parametrize("axis", SWEEP_AXES)
    @pytest.mark.parametrize("name,scenario", _scenarios())
    def test_baseline_parity(self, axis, name, scenario):
        link = scenario.baseline_link()
        values = AXIS_VALUES[axis]
        vectorized = link.evaluate(ProbeGrid.aligned(**{axis: values}))
        scalar = np.array([
            _scalar_link_at(link, axis, value).received_power_dbm()
            for value in values])
        assert np.max(np.abs(vectorized - scalar)) <= TOLERANCE_DB

    def test_axis_values_broadcast_against_voltage_grids(self):
        link = TransmissiveScenario().link()
        frequencies = AXIS_VALUES["frequency"]
        levels = np.linspace(0.0, 30.0, 9)
        grid_vx = np.broadcast_to(levels, (frequencies.size, levels.size))
        vectorized = link.evaluate(ProbeGrid.aligned(
            frequency=frequencies[:, None], vx=grid_vx, vy=levels[::-1]))
        assert vectorized.shape == (frequencies.size, levels.size)
        for i, frequency in enumerate(frequencies):
            scalar = _scalar_link_at(link, "frequency", frequency).evaluate(
                ProbeGrid.aligned(vx=levels, vy=levels[::-1]))
            assert np.max(np.abs(vectorized[i] - scalar)) <= TOLERANCE_DB

    def test_unknown_axis_rejected(self):
        link = TransmissiveScenario().link()
        with pytest.raises(ValueError, match="unknown grid axis"):
            link.evaluate(ProbeGrid.aligned(bandwidth=[1.0]))  # repro-lint: disable=RPR003 -- intentionally unknown axis exercising the rejection path

    def test_non_positive_frequency_rejected(self):
        link = TransmissiveScenario().link()
        with pytest.raises(ValueError):
            link.evaluate(ProbeGrid.aligned(frequency=[2.4e9, -1.0]))

    def test_link_backend_measure_grid_delegates(self):
        link = TransmissiveScenario().link()
        backend = LinkBackend(link)
        grid = ProbeGrid.aligned(tx_power=AXIS_VALUES["tx_power"], vx=7.0,
                                 vy=22.0)
        assert np.array_equal(backend.measure_grid(grid), link.evaluate(grid))


class TestFieldCaching:
    """The voltage-independent fields are computed once per link."""

    def test_direct_and_clutter_fields_cached(self):
        link = TransmissiveScenario(absorber=False).link()
        direct_first = link._direct_field()
        clutter_first = link._clutter_field()
        assert link._direct_field() is direct_first
        assert link._clutter_field() is clutter_first

    def test_repeated_probes_hit_the_cache(self, monkeypatch):
        link = ReflectiveScenario(absorber=False).link()
        calls = {"direct": 0}
        original_direct = WirelessLink._compute_direct_field

        def counting_direct(self):
            calls["direct"] += 1
            return original_direct(self)

        monkeypatch.setattr(WirelessLink, "_compute_direct_field",
                            counting_direct)
        link.received_power_dbm(7.0, 22.0)
        link.evaluate(ProbeGrid.aligned(vx=np.arange(0.0, 31.0, 5.0),
                                        vy=10.0))
        link.received_power_dbm(0.0, 0.0)
        link.evaluate(3.0, 9.0)
        assert calls["direct"] == 1

    def test_configuration_is_read_only(self):
        link = TransmissiveScenario().link()
        with pytest.raises(AttributeError):
            link.configuration = link.configuration.without_surface()

    def test_scalar_and_grid_agree_after_caching(self):
        link = TransmissiveScenario(absorber=False).link()
        # Warm the caches through one path, then cross-check the other.
        batched = link.evaluate(ProbeGrid.aligned(
            vx=np.array([0.0, 7.0, 30.0]), vy=np.array([0.0, 22.0, 30.0])))
        for i, (vx, vy) in enumerate([(0.0, 0.0), (7.0, 22.0), (30.0, 30.0)]):
            assert batched[i] == pytest.approx(
                link.received_power_dbm(vx, vy), abs=TOLERANCE_DB)


class TestOneAxisController:
    """Grid-native Algorithm 1 / exhaustive search over one axis vs
    scalar per-point runs."""

    @pytest.fixture(scope="class")
    def controller(self):
        return CentralizedController(
            VoltageSweepConfig(iterations=2, switches_per_axis=5))

    @pytest.mark.parametrize("axis", ["frequency", "tx_power", "distance"])
    @pytest.mark.parametrize("name,scenario", _scenarios()[:2] + _scenarios()[2:3])
    def test_coarse_to_fine_grid_matches_scalar(self, controller, axis,
                                                name, scenario):
        link = scenario.link()
        values = AXIS_VALUES[axis]
        multi = controller.coarse_to_fine_sweep_grid(
            LinkBackend(link), ProbeGrid.product(**{axis: values}))
        for i, value in enumerate(values):
            scalar = controller.coarse_to_fine_sweep(
                LinkBackend(_scalar_link_at(link, axis, value)))
            assert multi.best_vx[i] == pytest.approx(scalar.best_vx)
            assert multi.best_vy[i] == pytest.approx(scalar.best_vy)
            assert multi.best_power_dbm[i] == pytest.approx(
                scalar.best_power_dbm, abs=TOLERANCE_DB)

    def test_full_sweep_grid_matches_scalar(self, controller):
        link = TransmissiveScenario().link()
        values = AXIS_VALUES["frequency"][:3]
        multi = controller.full_sweep_grid(
            LinkBackend(link), ProbeGrid.product(frequency=values),
            step_v=5.0)
        for i, value in enumerate(values):
            scalar = controller.full_sweep(
                LinkBackend(_scalar_link_at(link, "frequency", value)),
                step_v=5.0)
            assert multi.best_vx[i] == scalar.best_vx
            assert multi.best_vy[i] == scalar.best_vy
            assert multi.best_power_dbm[i] == pytest.approx(
                scalar.best_power_dbm, abs=TOLERANCE_DB)

    def test_first_maximum_and_nan_semantics(self, controller):
        """NaN probes are never selected; ties pick the first grid point."""
        class TiedBackend:
            def measure_grid(self, grid):
                powers = np.zeros(grid.shape)
                # Poison one probe with NaN; everything else ties at 0.
                powers[..., 1] = np.nan
                return powers

        multi = controller.coarse_to_fine_sweep_grid(
            TiedBackend(), ProbeGrid.product(tx_power=np.array([0.0, 10.0])))
        scalar = controller.coarse_to_fine_sweep(TiedBackend())
        assert multi.best_vx[0] == scalar.best_vx
        assert multi.best_vy[0] == scalar.best_vy
        assert multi.best_power_dbm[0] == scalar.best_power_dbm == 0.0

    def test_all_nan_reports_minus_infinity(self, controller):
        class NaNBackend:
            def measure_grid(self, grid):
                return np.full(grid.shape, np.nan)

        multi = controller.coarse_to_fine_sweep_grid(
            NaNBackend(), ProbeGrid.product(tx_power=np.array([0.0])))
        assert multi.best_power_dbm[0] == -math.inf


class TestNoisyReceiverSweepParity:
    """Batched noisy probes replay the scalar receiver loop exactly."""

    def test_fig18_style_sweep_matches_per_point_receivers(self):
        scenario = TransmissiveScenario(antenna_kind="omni", absorber=False)
        configuration = replace(scenario.configuration(),
                                interference_floor_dbm=-42.0)
        link = WirelessLink(configuration)
        tx_powers_dbm = np.array([-27.0, -17.0, -7.0, 3.0, 13.0])
        controller = CentralizedController(
            VoltageSweepConfig(iterations=2, switches_per_axis=5))
        receiver = SimulatedReceiver(link, seed=5)
        multi = controller.coarse_to_fine_sweep_grid(
            ReceiverSweepBackend(receiver, duration_s=0.0002),
            ProbeGrid.product(tx_power=tx_powers_dbm))
        for i, tx_power in enumerate(tx_powers_dbm):
            point_link = WirelessLink(replace(configuration,
                                              tx_power_dbm=float(tx_power)))
            point_receiver = SimulatedReceiver(point_link, seed=5)
            scalar = controller.coarse_to_fine_sweep(CallableBackend(
                lambda vx, vy: point_receiver.measure_power_dbm(
                    vx=vx, vy=vy, duration_s=0.0002)))
            assert multi.best_vx[i] == scalar.best_vx
            assert multi.best_vy[i] == scalar.best_vy
            assert multi.best_power_dbm[i] == pytest.approx(
                scalar.best_power_dbm, abs=TOLERANCE_DB)

    def test_one_dimensional_batch_keeps_shape_and_shares_noise(self):
        """A 1-D batch is n axis points sharing one probe: the result
        keeps the input shape and every point sees the same (first)
        noise draw an identically seeded per-point receiver would."""
        link = TransmissiveScenario().link()
        tx_powers = np.array([-10.0, 0.0, 10.0])
        sweep = SimulatedReceiver(link, seed=9).measure_power_dbm_grid(
            ProbeGrid.aligned(tx_power=tx_powers), duration_s=0.0002)
        assert sweep.shape == tx_powers.shape
        for i, tx_power in enumerate(tx_powers):
            point_link = WirelessLink(replace(
                link.configuration, tx_power_dbm=float(tx_power)))
            scalar = SimulatedReceiver(point_link, seed=9).measure_power_dbm(
                duration_s=0.0002)
            assert sweep[i] == pytest.approx(scalar, abs=TOLERANCE_DB)

    def test_rejects_over_two_dimensional_batches(self):
        link = TransmissiveScenario().link()
        receiver = SimulatedReceiver(link, seed=9)
        with pytest.raises(ValueError, match="at most 2-D"):
            receiver.measure_power_dbm_grid(ProbeGrid.aligned(
                tx_power=np.zeros((2, 1, 1)), vx=np.zeros((2, 3, 4))))

    @pytest.mark.parametrize("capture", [
        {"duration_s": 0.0},
        {"duration_s": math.nan},
        {"tone_frequency_hz": math.nan},
        {"tone_frequency_hz": 2e6},
    ], ids=["zero-duration", "nan-duration", "nan-tone",
            "tone-beyond-nyquist"])
    def test_rejects_invalid_capture(self, capture):
        """The backend refuses a bad capture when constructed, the
        receiver before its budget pass."""
        receiver = SimulatedReceiver(TransmissiveScenario().link(), seed=5)
        with pytest.raises(ValueError):
            ReceiverSweepBackend(receiver, **capture)
        with pytest.raises(ValueError):
            receiver.measure_power_dbm_grid(
                ProbeGrid.aligned(tx_power=[0.0]), **capture)


class TestMultiAxisSweepDriver:
    """experiments.sweeps.multi_axis_sweep vs the per-point factory loop."""

    def test_matches_comparison_sweep_on_frequency_axis(self):
        frequencies = AXIS_VALUES["frequency"][:4]
        scenario = TransmissiveScenario(
            frequency_hz=float(frequencies[0]))
        vectorized = multi_axis_sweep("frequency", frequencies,
                                      scenario.link(),
                                      baseline_link=scenario.baseline_link())
        legacy = comparison_sweep(
            frequencies,
            link_factory=lambda f: TransmissiveScenario(
                frequency_hz=float(f)).link(),
            baseline_factory=lambda f: TransmissiveScenario(
                frequency_hz=float(f)).baseline_link())
        assert len(vectorized) == len(legacy)
        for fast, slow in zip(vectorized, legacy):
            assert fast.parameter == pytest.approx(slow.parameter)
            assert fast.power_with_dbm == pytest.approx(slow.power_with_dbm,
                                                        abs=TOLERANCE_DB)
            assert fast.power_without_dbm == pytest.approx(
                slow.power_without_dbm, abs=TOLERANCE_DB)
            assert fast.best_vx == pytest.approx(slow.best_vx)
            assert fast.best_vy == pytest.approx(slow.best_vy)

    def test_sweep_capacity_vectorized_matches_scalar_formula(self):
        frequencies = AXIS_VALUES["frequency"][:3]
        scenario = TransmissiveScenario(frequency_hz=float(frequencies[0]))
        points = multi_axis_sweep("frequency", frequencies, scenario.link(),
                                  baseline_link=scenario.baseline_link())
        rows = sweep_capacity(points, noise_power_dbm=-90.0)
        assert len(rows) == len(points)
        for row, point in zip(rows, points):
            snr_with = 10.0 ** ((point.power_with_dbm + 90.0) / 10.0)  # repro-lint: disable=RPR001 -- independent reference formula the parity assertion compares against
            snr_without = 10.0 ** ((point.power_without_dbm + 90.0) / 10.0)  # repro-lint: disable=RPR001 -- independent reference formula the parity assertion compares against
            assert row[1] == pytest.approx(math.log2(1.0 + snr_with))
            assert row[2] == pytest.approx(math.log2(1.0 + snr_without))
        assert sweep_capacity([], noise_power_dbm=-90.0) == []
