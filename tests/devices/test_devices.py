"""Tests for the IoT endpoint device models."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.devices.base import IoTDevice, RadioTechnology, generic_iot_device
from repro.devices.ble import (
    BLE_RATE_TABLE,
    ble_rate_for_rssi_kbps,
    metamotion_wearable,
    raspberry_pi_central,
)
from repro.devices.wifi import (
    WIFI_80211G_RATE_TABLE,
    esp8266_station,
    netgear_access_point,
    wifi_rate_for_rssi_mbps,
    wifi_throughput_gain_mbps,
)
from repro.devices.zigbee import zigbee_rate_for_rssi_kbps, zigbee_sensor


class TestBaseDevice:
    def test_generic_device_has_dipole(self):
        device = generic_iot_device(orientation_deg=90.0)
        assert device.antenna.orientation_deg == 90.0

    def test_orientation_change_returns_copy(self):
        device = generic_iot_device()
        rotated = device.with_antenna_orientation(45.0)
        assert device.antenna.orientation_deg == 0.0
        assert rotated.antenna.orientation_deg == 45.0

    def test_link_margin_and_decoding(self):
        device = generic_iot_device()
        assert device.link_margin_db(-60.0) == pytest.approx(30.0)
        assert device.can_decode(-60.0)
        assert not device.can_decode(-95.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            IoTDevice("bad", RadioTechnology.BLE, 0.0, 10.0,
                      generic_iot_device().antenna)
        with pytest.raises(ValueError):
            IoTDevice("bad", RadioTechnology.BLE, 0.0, -90.0,
                      generic_iot_device().antenna, frequency_hz=0.0)


class TestWiFiDevices:
    def test_esp8266_is_cheap_and_single_antenna(self):
        station = esp8266_station()
        assert station.unit_cost_usd < 10.0
        assert station.antenna.polarization.kind.value == "linear"

    def test_ap_supports_paper_rate(self):
        """Paper Sec. 4: the AP can send data at up to 340 Mbps."""
        assert netgear_access_point().max_phy_rate_mbps == pytest.approx(340.0)

    def test_orientation_configures_mismatch(self):
        assert esp8266_station(orientation_deg=90.0).antenna.orientation_deg == 90.0

    def test_rate_table_monotonic(self):
        thresholds = [row[0] for row in WIFI_80211G_RATE_TABLE]
        rates = [row[1] for row in WIFI_80211G_RATE_TABLE]
        assert thresholds == sorted(thresholds)
        assert rates == sorted(rates)

    def test_rate_for_strong_rssi_is_54mbps(self):
        assert wifi_rate_for_rssi_mbps(-40.0) == pytest.approx(54.0)

    def test_rate_below_sensitivity_is_zero(self):
        assert wifi_rate_for_rssi_mbps(-100.0) == 0.0

    def test_throughput_gain_from_rssi_improvement(self):
        """A 10-15 dB RSSI improvement around the rate cliff unlocks
        substantially higher 802.11g rates."""
        gain = wifi_throughput_gain_mbps(-85.0, -70.0)
        assert gain >= 24.0

    @given(st.floats(min_value=-110.0, max_value=-30.0))
    def test_wifi_rate_monotonic_in_rssi(self, rssi):
        assert wifi_rate_for_rssi_mbps(rssi + 5.0) >= wifi_rate_for_rssi_mbps(rssi)

    def test_wifi_rate_matches_the_table_scan(self):
        """The rate is the one of the last threshold the RSSI clears, on
        and just below every threshold; NaN and -inf clear none."""
        thresholds = np.array([row[0] for row in WIFI_80211G_RATE_TABLE])
        rssi = np.concatenate([
            np.linspace(-110.0, -30.0, 8001), thresholds,
            np.nextafter(thresholds, -np.inf),
            [np.nan, np.inf, -np.inf]]).reshape(-1, 7)
        expected = np.zeros_like(rssi)
        for threshold_dbm, rate_mbps in WIFI_80211G_RATE_TABLE:
            expected = np.where(rssi >= threshold_dbm, rate_mbps, expected)
        rates = wifi_rate_for_rssi_mbps(rssi)
        assert rates.dtype == np.float64 and rates.shape == rssi.shape
        assert np.array_equal(rates, expected)
        assert wifi_rate_for_rssi_mbps(np.array(-70.0)).shape == ()
        assert wifi_rate_for_rssi_mbps(float("nan")) == 0.0


class TestBleDevices:
    def test_wearable_low_power(self):
        """BLE wearables transmit around 0 dBm, which is why the paper
        warns the surface may not help BLE transmitters in multipath."""
        assert metamotion_wearable().tx_power_dbm <= 4.0

    def test_raspberry_pi_central_bandwidth(self):
        assert raspberry_pi_central().channel_bandwidth_hz == pytest.approx(2e6)

    def test_ble_rate_monotonic_table(self):
        rates = [row[1] for row in BLE_RATE_TABLE]
        assert rates == sorted(rates)

    def test_ble_rate_values(self):
        assert ble_rate_for_rssi_kbps(-60.0) == pytest.approx(700.0)
        assert ble_rate_for_rssi_kbps(-100.0) == 0.0

    @given(st.floats(min_value=-110.0, max_value=-40.0))
    def test_ble_rate_monotonic_in_rssi(self, rssi):
        assert ble_rate_for_rssi_kbps(rssi + 5.0) >= ble_rate_for_rssi_kbps(rssi)


class TestZigbeeDevices:
    def test_zigbee_sensor_parameters(self):
        sensor = zigbee_sensor()
        assert sensor.technology is RadioTechnology.ZIGBEE
        assert sensor.channel_bandwidth_hz == pytest.approx(2e6)

    def test_zigbee_rate_saturates_at_phy_rate(self):
        assert zigbee_rate_for_rssi_kbps(-40.0) == pytest.approx(250.0)

    def test_zigbee_rate_zero_below_sensitivity(self):
        assert zigbee_rate_for_rssi_kbps(-105.0) == 0.0

    @given(st.floats(min_value=-110.0, max_value=-40.0))
    def test_zigbee_rate_monotonic_in_rssi(self, rssi):
        assert zigbee_rate_for_rssi_kbps(rssi + 5.0) >= zigbee_rate_for_rssi_kbps(rssi)
