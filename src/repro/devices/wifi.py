"""Wi-Fi endpoint models (paper Figs. 2a and 20).

The paper's commodity Wi-Fi experiments pair a Netgear N300 access point
with a cheap ESP8266-based Arduino board over 802.11g.  For the
reproduction the relevant behaviour is:

* the station's single low-quality dipole antenna (the polarization-
  mismatch victim),
* the transmit powers of the two ends,
* the mapping from RSSI to the achievable 802.11g data rate, so that a
  10-15 dB RSSI improvement can be translated into the throughput terms
  the paper's introduction motivates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.channel.antenna import dipole_antenna
from repro.devices.base import IoTDevice, RadioTechnology

ArrayLike = Union[float, np.ndarray]

#: 802.11g rate set and the approximate minimum RSSI needed to sustain
#: each rate with a commodity receiver (dBm -> Mbit/s).
WIFI_80211G_RATE_TABLE = (
    (-92.0, 1.0),
    (-90.0, 6.0),
    (-88.0, 9.0),
    (-86.0, 12.0),
    (-83.0, 18.0),
    (-80.0, 24.0),
    (-76.0, 36.0),
    (-71.0, 48.0),
    (-66.0, 54.0),
)

# The table's thresholds ascend, so the rate at an RSSI is the one
# indexed by the number of thresholds it clears (none: 0 Mbit/s).
_RATE_THRESHOLDS_DBM = tuple(threshold for threshold, _ in
                             WIFI_80211G_RATE_TABLE)
_RATE_BY_THRESHOLDS_CLEARED = np.array(
    [0.0] + [rate for _, rate in WIFI_80211G_RATE_TABLE])


@dataclass(frozen=True)
class WiFiAccessPoint(IoTDevice):
    """A commodity 802.11g/n access point."""

    max_phy_rate_mbps: float = 340.0


@dataclass(frozen=True)
class WiFiStation(IoTDevice):
    """A low-cost Wi-Fi station (single-antenna SoC module)."""

    max_phy_rate_mbps: float = 54.0


def netgear_access_point(orientation_deg: float = 0.0) -> WiFiAccessPoint:
    """The Netgear N300-class AP used in the paper's experiments."""
    return WiFiAccessPoint(
        name="Netgear N300 AP",
        technology=RadioTechnology.WIFI_802_11G,
        tx_power_dbm=20.0,
        rx_sensitivity_dbm=-92.0,
        antenna=dipole_antenna(orientation_deg=orientation_deg,
                               gain_dbi=3.0, name="AP dipole"),
        channel_bandwidth_hz=20e6,
        unit_cost_usd=40.0,
        max_phy_rate_mbps=340.0,
    )


def esp8266_station(orientation_deg: float = 0.0) -> WiFiStation:
    """The cheap ESP8266-based Arduino board used in the paper."""
    return WiFiStation(
        name="ESP8266 Arduino",
        technology=RadioTechnology.WIFI_802_11G,
        tx_power_dbm=14.0,
        rx_sensitivity_dbm=-91.0,
        antenna=dipole_antenna(orientation_deg=orientation_deg,
                               gain_dbi=1.0, name="ESP8266 PCB antenna",
                               cross_pol_isolation_db=12.0),
        channel_bandwidth_hz=20e6,
        unit_cost_usd=4.0,
        max_phy_rate_mbps=54.0,
    )


def wifi_rate_for_rssi_mbps(rssi_dbm: ArrayLike) -> ArrayLike:
    """Achievable 802.11g PHY rate (Mbit/s) at a given RSSI.

    Below the sensitivity of the lowest rate the link is down (0 Mbit/s).
    """
    rssi = np.asarray(rssi_dbm, dtype=float)
    cleared = np.zeros(rssi.shape, dtype=np.uint8)
    for threshold_dbm in _RATE_THRESHOLDS_DBM:
        cleared += rssi >= threshold_dbm  # NaN clears no threshold
    rates = _RATE_BY_THRESHOLDS_CLEARED[cleared]
    if np.isscalar(rssi_dbm):
        return float(rates)
    return np.asarray(rates)


def wifi_throughput_gain_mbps(rssi_without_dbm: float,
                              rssi_with_dbm: float) -> float:
    """PHY-rate improvement unlocked by an RSSI improvement."""
    return float(wifi_rate_for_rssi_mbps(rssi_with_dbm) -
                 wifi_rate_for_rssi_mbps(rssi_without_dbm))


__all__ = [
    "WIFI_80211G_RATE_TABLE",
    "WiFiAccessPoint",
    "WiFiStation",
    "netgear_access_point",
    "esp8266_station",
    "wifi_rate_for_rssi_mbps",
    "wifi_throughput_gain_mbps",
]
