"""Canonical experimental scenarios (paper Sec. 4 and Fig. 14).

Each scenario bundles the geometry, antennas, environment and surface of
one of the paper's experimental setups and exposes ready-to-evaluate
:class:`~repro.channel.link.WirelessLink` objects for the "with" and
"without" metasurface cases.  The figure runners in
:mod:`repro.experiments.figures` are thin sweeps over these scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

from repro.channel.antenna import Antenna, dipole_antenna, directional_antenna, omni_antenna
from repro.channel.geometry import LinkGeometry
from repro.channel.link import DeploymentMode, LinkConfiguration, WirelessLink
from repro.channel.multipath import MultipathEnvironment
from repro.constants import DEFAULT_CENTER_FREQUENCY_HZ
from repro.devices.base import IoTDevice
from repro.devices.ble import metamotion_wearable, raspberry_pi_central
from repro.devices.wifi import esp8266_station, netgear_access_point
from repro.devices.zigbee import zigbee_coordinator, zigbee_sensor
from repro.metasurface.design import llama_design
from repro.metasurface.surface import Metasurface


@lru_cache(maxsize=1)
def _default_surface() -> Metasurface:
    """The paper's optimized FR4 prototype.

    The surface is immutable (a frozen dataclass stack), so one build is
    shared by every scenario that doesn't override it — which is what
    lets registry runs of overlapping experiments share their scenario
    construction.
    """
    return llama_design().build()


#: Antenna factories by a scenario's ``antenna_kind``.
_ANTENNA_KINDS: Dict[str, Callable[..., Antenna]] = {
    "directional": directional_antenna,
    "omni": omni_antenna,
    "dipole": dipole_antenna,
}


def _environment(absorber: bool, seed: int) -> MultipathEnvironment:
    """The absorber-covered chamber, or the laboratory without it."""
    if absorber:
        return MultipathEnvironment.anechoic(seed=seed)
    return MultipathEnvironment.laboratory(seed=seed)


@dataclass(frozen=True)
class TransmissiveScenario:
    """Through-surface setup: the surface sits between the endpoints.

    Attributes mirror the knobs the paper varies: Tx-Rx distance, antenna
    type/orientation (mismatch by default), transmit power, frequency and
    whether the chamber is covered with absorber.
    """

    tx_rx_distance_m: float = 0.42
    tx_orientation_deg: float = 0.0
    rx_orientation_deg: float = 90.0
    tx_power_dbm: float = 0.0
    frequency_hz: float = DEFAULT_CENTER_FREQUENCY_HZ
    antenna_kind: str = "directional"
    absorber: bool = True
    metasurface: Metasurface = field(default_factory=_default_surface)
    environment_seed: int = 2021

    def __post_init__(self) -> None:
        if self.tx_rx_distance_m <= 0:
            raise ValueError("Tx-Rx distance must be positive")
        if self.antenna_kind not in _ANTENNA_KINDS:
            raise ValueError("antenna kind must be directional, omni or dipole")

    def configuration(self) -> LinkConfiguration:
        """Link configuration with the metasurface deployed."""
        geometry = LinkGeometry.transmissive(self.tx_rx_distance_m)
        return LinkConfiguration(
            tx_antenna=_ANTENNA_KINDS[self.antenna_kind](
                orientation_deg=self.tx_orientation_deg),
            rx_antenna=_ANTENNA_KINDS[self.antenna_kind](
                orientation_deg=self.rx_orientation_deg),
            geometry=geometry,
            frequency_hz=self.frequency_hz,
            tx_power_dbm=self.tx_power_dbm,
            environment=_environment(self.absorber, self.environment_seed),
            metasurface=self.metasurface,
            deployment=DeploymentMode.TRANSMISSIVE,
        )

    def link(self) -> WirelessLink:
        """Link with the metasurface present."""
        return WirelessLink(self.configuration())

    def baseline_link(self) -> WirelessLink:
        """Link with the metasurface removed."""
        return WirelessLink(self.configuration().without_surface())

    def with_distance(self, tx_rx_distance_m: float) -> "TransmissiveScenario":
        """Copy of the scenario at a different Tx-Rx distance."""
        return replace(self, tx_rx_distance_m=tx_rx_distance_m)

    def with_frequency(self, frequency_hz: float) -> "TransmissiveScenario":
        """Copy of the scenario at a different carrier frequency."""
        return replace(self, frequency_hz=frequency_hz)

    def with_tx_power(self, tx_power_dbm: float) -> "TransmissiveScenario":
        """Copy of the scenario at a different transmit power."""
        return replace(self, tx_power_dbm=tx_power_dbm)

    def matched(self) -> "TransmissiveScenario":
        """Copy with the endpoints polarization-matched."""
        return replace(self, rx_orientation_deg=self.tx_orientation_deg)


@dataclass(frozen=True)
class ReflectiveScenario:
    """Same-side setup: endpoints on one side of the surface (Fig. 14 right)."""

    tx_rx_separation_m: float = 0.70
    surface_distance_m: float = 0.42
    tx_orientation_deg: float = 0.0
    rx_orientation_deg: float = 90.0
    tx_power_dbm: float = 0.0
    frequency_hz: float = DEFAULT_CENTER_FREQUENCY_HZ
    antenna_kind: str = "directional"
    absorber: bool = True
    metasurface: Metasurface = field(default_factory=_default_surface)
    environment_seed: int = 2021

    def __post_init__(self) -> None:
        if self.tx_rx_separation_m <= 0 or self.surface_distance_m <= 0:
            raise ValueError("geometry distances must be positive")
        if self.antenna_kind not in _ANTENNA_KINDS:
            raise ValueError("antenna kind must be directional, omni or dipole")

    def configuration(self) -> LinkConfiguration:
        """Link configuration with the metasurface deployed."""
        geometry = LinkGeometry.reflective(self.tx_rx_separation_m,
                                           self.surface_distance_m)
        return LinkConfiguration(
            tx_antenna=_ANTENNA_KINDS[self.antenna_kind](
                orientation_deg=self.tx_orientation_deg),
            rx_antenna=_ANTENNA_KINDS[self.antenna_kind](
                orientation_deg=self.rx_orientation_deg),
            geometry=geometry,
            frequency_hz=self.frequency_hz,
            tx_power_dbm=self.tx_power_dbm,
            environment=_environment(self.absorber, self.environment_seed),
            metasurface=self.metasurface,
            deployment=DeploymentMode.REFLECTIVE,
            aim_at_surface=True,
        )

    def link(self) -> WirelessLink:
        """Link with the metasurface present."""
        return WirelessLink(self.configuration())

    def baseline_link(self) -> WirelessLink:
        """Link with the metasurface removed (same antenna aiming)."""
        return WirelessLink(self.configuration().without_surface())

    def with_surface_distance(self, surface_distance_m: float) -> "ReflectiveScenario":
        """Copy of the scenario at a different Tx-to-surface distance."""
        return replace(self, surface_distance_m=surface_distance_m)

    def with_tx_power(self, tx_power_dbm: float) -> "ReflectiveScenario":
        """Copy of the scenario at a different transmit power."""
        return replace(self, tx_power_dbm=tx_power_dbm)


#: The (transmitter, receiver) device factories of each commodity IoT
#: link, by scenario-factory name.
_IOT_DEVICES: Dict[str, Tuple[Callable[..., IoTDevice],
                              Callable[..., IoTDevice]]] = {
    "iot_wifi": (esp8266_station, netgear_access_point),
    "iot_ble": (metamotion_wearable, raspberry_pi_central),
    "iot_zigbee": (zigbee_sensor, zigbee_coordinator),
}

_IoTScenario = Tuple[LinkConfiguration, IoTDevice, IoTDevice]


def _iot_scenario(family: str, mismatched: bool, distance_m: float,
                  with_surface: bool, metasurface: Optional[Metasurface],
                  absorber: bool, seed: int) -> _IoTScenario:
    """One commodity IoT uplink through (or without) the surface.

    The transmitter is mismatched (90 deg) or matched (0 deg) to the
    receiver.  Without the absorber the room is a home or office.
    """
    transmitter_factory, receiver_factory = _IOT_DEVICES[family]
    transmitter = transmitter_factory(
        orientation_deg=90.0 if mismatched else 0.0)
    receiver = receiver_factory(orientation_deg=0.0)
    surface = metasurface if metasurface is not None else _default_surface()
    configuration = LinkConfiguration(
        tx_antenna=transmitter.antenna,
        rx_antenna=receiver.antenna,
        geometry=LinkGeometry.transmissive(distance_m),
        frequency_hz=transmitter.frequency_hz,
        tx_power_dbm=transmitter.tx_power_dbm,
        bandwidth_hz=transmitter.channel_bandwidth_hz,
        environment=(MultipathEnvironment.anechoic(seed=seed) if absorber
                     else MultipathEnvironment.indoor(seed=seed)),
        metasurface=surface if with_surface else None,
        deployment=(DeploymentMode.TRANSMISSIVE if with_surface
                    else DeploymentMode.NONE),
    )
    return configuration, transmitter, receiver


def iot_wifi_scenario(mismatched: bool = True,
                      distance_m: float = 3.0,
                      with_surface: bool = False,
                      metasurface: Optional[Metasurface] = None,
                      absorber: bool = False,
                      seed: int = 2021) -> _IoTScenario:
    """The commodity Wi-Fi link of Figs. 2a and 20.

    Returns ``(link_configuration, transmitter_device, receiver_device)``.
    The transmitter is the ESP8266 station, the receiver the AP (uplink
    direction, matching the RSSI the AP-side controller would observe).
    """
    return _iot_scenario("iot_wifi", mismatched, distance_m, with_surface,
                         metasurface, absorber, seed)


def iot_ble_scenario(mismatched: bool = True,
                     distance_m: float = 2.0,
                     with_surface: bool = False,
                     metasurface: Optional[Metasurface] = None,
                     absorber: bool = False,
                     seed: int = 2021) -> _IoTScenario:
    """The BLE wearable link of Fig. 2b.

    Returns ``(link_configuration, transmitter_device, receiver_device)``
    with the wearable transmitting to the Raspberry Pi.
    """
    return _iot_scenario("iot_ble", mismatched, distance_m, with_surface,
                         metasurface, absorber, seed)


def iot_zigbee_scenario(mismatched: bool = True,
                        distance_m: float = 4.0,
                        with_surface: bool = False,
                        metasurface: Optional[Metasurface] = None,
                        absorber: bool = False,
                        seed: int = 2021) -> _IoTScenario:
    """The Zigbee sensor link of the Sec. 5.1.2/5.1.3 discussion.

    The third commodity device family the paper names (alongside Wi-Fi
    and BLE): a battery-powered Zigbee sensor transmitting to a
    mains-powered coordinator hub.  Returns
    ``(link_configuration, transmitter_device, receiver_device)``.
    """
    return _iot_scenario("iot_zigbee", mismatched, distance_m, with_surface,
                         metasurface, absorber, seed)


#: The three commodity IoT device families, by scenario-factory name.
IOT_SCENARIOS = {
    "iot_wifi": iot_wifi_scenario,
    "iot_ble": iot_ble_scenario,
    "iot_zigbee": iot_zigbee_scenario,
}


__all__ = [
    "IOT_SCENARIOS",
    "TransmissiveScenario",
    "ReflectiveScenario",
    "iot_wifi_scenario",
    "iot_ble_scenario",
    "iot_zigbee_scenario",
]
