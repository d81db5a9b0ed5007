"""Tests for experiment scenarios, sweep drivers and reporting."""

import pytest

from repro.channel.link import DeploymentMode, WirelessLink
from repro.experiments.reporting import (
    PLACEHOLDER_CELL,
    format_comparison,
    format_heatmap,
    format_series,
    format_table,
)
from repro.experiments.scenarios import (
    IOT_SCENARIOS,
    ReflectiveScenario,
    TransmissiveScenario,
    iot_ble_scenario,
    iot_wifi_scenario,
    iot_zigbee_scenario,
)
from repro.experiments.sweeps import (
    comparison_sweep,
    optimize_link,
    sweep_capacity,
    voltage_grid_sweep,
)


class TestTransmissiveScenario:
    def test_default_is_mismatched(self):
        scenario = TransmissiveScenario()
        config = scenario.configuration()
        assert config.tx_antenna.orientation_deg == 0.0
        assert config.rx_antenna.orientation_deg == 90.0
        assert config.deployment is DeploymentMode.TRANSMISSIVE

    def test_matched_helper(self):
        matched = TransmissiveScenario().matched()
        assert matched.rx_orientation_deg == matched.tx_orientation_deg

    def test_baseline_link_has_no_surface(self):
        scenario = TransmissiveScenario()
        assert scenario.baseline_link().configuration.metasurface is None

    def test_with_helpers_return_copies(self):
        scenario = TransmissiveScenario()
        assert scenario.with_distance(0.6).tx_rx_distance_m == 0.6
        assert scenario.with_frequency(2.41e9).frequency_hz == 2.41e9
        assert scenario.with_tx_power(7.0).tx_power_dbm == 7.0
        assert scenario.tx_rx_distance_m == 0.42

    def test_antenna_kind_selection(self):
        omni = TransmissiveScenario(antenna_kind="omni")
        assert omni.configuration().tx_antenna.gain_dbi == pytest.approx(6.0)
        dipole = TransmissiveScenario(antenna_kind="dipole")
        assert dipole.configuration().tx_antenna.gain_dbi < 3.0

    def test_absorber_controls_environment(self):
        clean = TransmissiveScenario(absorber=True).configuration()
        noisy = TransmissiveScenario(absorber=False).configuration()
        assert clean.environment.absorber_enabled
        assert not noisy.environment.absorber_enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            TransmissiveScenario(tx_rx_distance_m=0.0)
        with pytest.raises(ValueError):
            TransmissiveScenario(antenna_kind="horn")


class TestReflectiveScenario:
    def test_aims_antennas_at_surface(self):
        config = ReflectiveScenario().configuration()
        assert config.aim_at_surface
        assert config.deployment is DeploymentMode.REFLECTIVE

    def test_surface_distance_helper(self):
        scenario = ReflectiveScenario().with_surface_distance(0.66)
        assert scenario.surface_distance_m == 0.66

    def test_validation(self):
        with pytest.raises(ValueError):
            ReflectiveScenario(tx_rx_separation_m=0.0)
        with pytest.raises(ValueError):
            ReflectiveScenario(antenna_kind="horn")


class TestIoTScenarios:
    def test_wifi_scenario_devices(self):
        config, station, access_point = iot_wifi_scenario()
        assert "ESP8266" in station.name
        assert config.tx_power_dbm == pytest.approx(station.tx_power_dbm)
        assert config.metasurface is None

    def test_wifi_scenario_with_surface(self):
        config, _station, _ap = iot_wifi_scenario(with_surface=True)
        assert config.metasurface is not None
        assert config.deployment is DeploymentMode.TRANSMISSIVE

    def test_wifi_mismatch_flag(self):
        mismatched, _s, _a = iot_wifi_scenario(mismatched=True)
        matched, _s, _a = iot_wifi_scenario(mismatched=False)
        assert (WirelessLink(matched).received_power_dbm() >
                WirelessLink(mismatched).received_power_dbm())

    def test_ble_scenario_devices(self):
        config, wearable, central = iot_ble_scenario()
        assert "MetaMotion" in wearable.name
        assert "Raspberry" in central.name
        assert config.bandwidth_hz == pytest.approx(2e6)

    def test_zigbee_scenario_devices(self):
        config, sensor, coordinator = iot_zigbee_scenario()
        assert "Zigbee sensor" in sensor.name
        assert "coordinator" in coordinator.name
        assert config.tx_power_dbm == pytest.approx(sensor.tx_power_dbm)
        assert config.bandwidth_hz == pytest.approx(2e6)
        assert config.metasurface is None

    def test_zigbee_scenario_with_surface(self):
        config, _sensor, _coordinator = iot_zigbee_scenario(with_surface=True)
        assert config.metasurface is not None
        assert config.deployment is DeploymentMode.TRANSMISSIVE

    def test_zigbee_mismatch_flag(self):
        mismatched, _s, _c = iot_zigbee_scenario(mismatched=True)
        matched, _s, _c = iot_zigbee_scenario(mismatched=False)
        assert (WirelessLink(matched).received_power_dbm() >
                WirelessLink(mismatched).received_power_dbm())

    def test_iot_scenarios_mapping_names_all_families(self):
        assert set(IOT_SCENARIOS) == {"iot_wifi", "iot_ble", "iot_zigbee"}
        for factory in IOT_SCENARIOS.values():
            configuration, transmitter, receiver = factory()
            assert configuration.metasurface is None
            assert transmitter.name != receiver.name


class TestSweepDrivers:
    def test_optimize_link_beats_worst_case(self):
        scenario = TransmissiveScenario()
        best_power, best_vx, best_vy = optimize_link(scenario.link())
        assert best_power > scenario.link().received_power_dbm(15.0, 15.0)
        assert 0.0 <= best_vx <= 30.0
        assert 0.0 <= best_vy <= 30.0

    def test_comparison_sweep_improves_over_baseline(self):
        distances = [0.30, 0.48]
        points = comparison_sweep(
            distances,
            link_factory=lambda d: TransmissiveScenario(tx_rx_distance_m=d).link(),
            baseline_factory=lambda d: TransmissiveScenario(
                tx_rx_distance_m=d).baseline_link())
        assert len(points) == 2
        for point in points:
            assert point.gain_db > 5.0

    def test_voltage_grid_sweep_shape(self):
        grid = voltage_grid_sweep(TransmissiveScenario().link(), step_v=10.0)
        assert len(grid) == 16
        assert all(0.0 <= vx <= 30.0 and 0.0 <= vy <= 30.0 for vx, vy in grid)

    def test_voltage_grid_sweep_validation(self):
        with pytest.raises(ValueError):
            voltage_grid_sweep(TransmissiveScenario().link(), step_v=0.0)
        with pytest.raises(ValueError):
            voltage_grid_sweep(TransmissiveScenario().link(), v_min=10.0,
                               v_max=5.0)

    def test_sweep_capacity_conversion(self):
        points = comparison_sweep(
            [0.42],
            link_factory=lambda d: TransmissiveScenario(tx_rx_distance_m=d).link(),
            baseline_factory=lambda d: TransmissiveScenario(
                tx_rx_distance_m=d).baseline_link())
        rows = sweep_capacity(points, noise_power_dbm=-90.0)
        assert len(rows) == 1
        parameter, with_eff, without_eff = rows[0]
        assert parameter == pytest.approx(0.42)
        assert with_eff > without_eff


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2.5], [3, 4.25]], precision=1)
        lines = table.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]

    def test_format_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_series(self):
        text = format_series("demo", [1, 2], [3.0, 4.0], "x", "y")
        assert "demo" in text
        assert "4.00" in text

    def test_format_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("demo", [1], [1, 2])

    def test_format_comparison_includes_improvement(self):
        text = format_comparison("cmp", [1.0], [10.0], [4.0])
        assert "improvement" in text
        assert "6.00" in text

    def test_format_heatmap(self):
        grid = {(0.0, 0.0): -30.0, (0.0, 10.0): -20.0,
                (10.0, 0.0): -25.0, (10.0, 10.0): -15.0}
        text = format_heatmap(grid, title="heat")
        assert "heat" in text
        assert "Vx\\Vy" in text

    def test_format_heatmap_empty_renders_placeholder(self):
        text = format_heatmap({}, title="empty heat")
        lines = text.splitlines()
        assert lines[0] == "empty heat"
        assert "Vx\\Vy" in lines[1]
        assert PLACEHOLDER_CELL in lines[-1]

    def test_format_table_empty_rows_render_placeholder(self):
        text = format_table(["a", "bb"], [])
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[-1].split() == [PLACEHOLDER_CELL, PLACEHOLDER_CELL]

    def test_format_series_empty_renders_placeholder(self):
        text = format_series("empty series", [], [])
        lines = text.splitlines()
        assert lines[0] == "empty series"
        assert PLACEHOLDER_CELL in lines[-1]

    def test_format_comparison_empty_renders_placeholder(self):
        text = format_comparison("empty cmp", [], [], [])
        assert PLACEHOLDER_CELL in text.splitlines()[-1]

    def test_nan_cells_render_placeholder_not_nan(self):
        nan = float("nan")
        text = format_series("missing-cell series", [1.0, 2.0], [3.0, nan])
        assert PLACEHOLDER_CELL in text
        assert "nan" not in text.replace(PLACEHOLDER_CELL, "")

    def test_format_heatmap_ragged_grid_fills_nan_cells(self):
        grid = {(0.0, 0.0): -30.0, (10.0, 10.0): -15.0}
        text = format_heatmap(grid, title="ragged")
        assert text.count(PLACEHOLDER_CELL) == 2

    def test_format_comparison_with_nan_improvement(self):
        nan = float("nan")
        text = format_comparison("cmp", [1.0], [nan], [4.0])
        # with-surface cell and the improvement column both placeholder
        assert text.splitlines()[-1].count(PLACEHOLDER_CELL) == 2
