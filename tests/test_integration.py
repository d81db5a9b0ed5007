"""Cross-module integration tests.

Each test exercises a full slice of the system the way a user of the
library (or the paper's evaluation) would: metasurface model -> channel
-> receiver -> controller -> result, rather than any single module in
isolation.
"""

import numpy as np
import pytest

from repro.api import CallableBackend
from repro.channel.antenna import directional_antenna
from repro.channel.geometry import LinkGeometry
from repro.channel.link import DeploymentMode, LinkConfiguration, WirelessLink
from repro.core.controller import CentralizedController, VoltageSweepConfig
from repro.core.llama import LlamaSystem
from repro.core.rotator import ProgrammableRotator
from repro.hardware.power_supply import ProgrammablePowerSupply
from repro.hardware.visa import VisaResourceManager
from repro.metasurface.design import llama_design, rogers_reference_design
from repro.radio.transceiver import SimulatedReceiver


@pytest.fixture(scope="module")
def surface():
    return llama_design().build()


@pytest.fixture(scope="module")
def mismatched_link(surface):
    configuration = LinkConfiguration(
        tx_antenna=directional_antenna(orientation_deg=0.0),
        rx_antenna=directional_antenna(orientation_deg=90.0),
        geometry=LinkGeometry.transmissive(0.42),
        metasurface=surface,
        deployment=DeploymentMode.TRANSMISSIVE,
    )
    return WirelessLink(configuration)


class TestSurfaceToJonesConsistency:
    def test_surface_jones_matrix_rotation_agrees_with_report(self, surface):
        """The rotation the surface *reports* matches the orientation change
        its Jones matrix actually applies to a linear wave (up to the small
        per-axis loss asymmetry)."""
        from repro.core.jones import JonesVector
        reported = abs(surface.rotation_angle_deg(2.44e9, 30.0, 0.0))
        transmitted = surface.jones_matrix(2.44e9, 30.0, 0.0).apply(
            JonesVector.horizontal())
        realised = transmitted.orientation_deg
        realised = min(realised, 180.0 - realised)
        assert realised == pytest.approx(reported, abs=3.0)

    def test_controller_exploits_reported_rotation(self, surface, mismatched_link):
        """The bias pair the controller picks realises a rotation close to
        the one that best corrects the 90-degree mismatch (bounded by the
        surface's achievable range)."""
        controller = CentralizedController(
            VoltageSweepConfig(iterations=2, switches_per_axis=6))
        result = controller.coarse_to_fine_sweep(
            CallableBackend(mismatched_link.received_power_dbm))
        rotation = abs(surface.rotation_angle_deg(2.44e9, result.best_vx,
                                                  result.best_vy))
        maximum = surface.rotation_range_deg(2.44e9, 0.0, 30.0)[1]
        assert rotation > 0.75 * maximum


class TestNoisyControlLoop:
    def test_controller_converges_through_noisy_receiver(self, mismatched_link):
        """Closing the loop through the sampling receiver (with thermal
        noise) still finds a near-optimal bias pair at normal SNR."""
        receiver = SimulatedReceiver(mismatched_link, seed=9)
        controller = CentralizedController()
        noisy = controller.coarse_to_fine_sweep(CallableBackend(
            lambda vx, vy: receiver.measure_power_dbm(vx=vx, vy=vy)))
        noiseless = controller.coarse_to_fine_sweep(
            CallableBackend(mismatched_link.received_power_dbm))
        achieved = mismatched_link.received_power_dbm(noisy.best_vx, noisy.best_vy)
        assert achieved >= noiseless.best_power_dbm - 2.0


class TestFullSystemThroughVisa:
    def test_scpi_driven_bias_matches_llama_result(self, surface):
        """Driving the supply over SCPI produces the same surface state the
        LlamaSystem facade programs internally."""
        configuration = LinkConfiguration(
            tx_antenna=directional_antenna(orientation_deg=0.0),
            rx_antenna=directional_antenna(orientation_deg=90.0),
            geometry=LinkGeometry.transmissive(0.42),
            metasurface=surface,
            deployment=DeploymentMode.TRANSMISSIVE,
        )
        system = LlamaSystem(configuration)
        result = system.optimize()

        supply = ProgrammablePowerSupply()
        rotator = ProgrammableRotator(surface)
        supply.on_voltage_change = rotator.set_bias_voltages
        manager = VisaResourceManager()
        manager.register("SIM::INSTR", supply.scpi_handler)
        with manager.open_resource("SIM::INSTR") as session:
            session.write("OUTP ON")
            session.write("INST:SEL CH1")
            session.write(f"SOUR:VOLT {result.best_vx}")
            session.write("INST:SEL CH2")
            session.write(f"SOUR:VOLT {result.best_vy}")
        assert rotator.bias_voltages == (result.best_vx, result.best_vy)

    def test_llama_gain_consistent_across_runs(self, surface):
        configuration = LinkConfiguration(
            tx_antenna=directional_antenna(orientation_deg=0.0),
            rx_antenna=directional_antenna(orientation_deg=90.0),
            geometry=LinkGeometry.transmissive(0.42),
            metasurface=surface,
            deployment=DeploymentMode.TRANSMISSIVE,
        )
        first = LlamaSystem(configuration).optimize()
        second = LlamaSystem(configuration).optimize()
        assert first.power_gain_db == pytest.approx(second.power_gain_db)


class TestDesignSubstitution:
    def test_rogers_and_llama_designs_give_similar_link_gains(self):
        """The paper's claim: the cheap optimized FR4 design achieves
        comparable end-to-end benefit to the expensive reference design."""
        gains = {}
        for name, design in (("llama", llama_design()),
                             ("rogers", rogers_reference_design())):
            surface = design.build()
            configuration = LinkConfiguration(
                tx_antenna=directional_antenna(orientation_deg=0.0),
                rx_antenna=directional_antenna(orientation_deg=90.0),
                geometry=LinkGeometry.transmissive(0.42),
                metasurface=surface,
                deployment=DeploymentMode.TRANSMISSIVE,
            )
            result = LlamaSystem(configuration).optimize()
            gains[name] = result.power_gain_db
        assert gains["llama"] > gains["rogers"] - 4.0

    def test_mismatch_angle_sweep_monotonic_gain(self, surface):
        """The more mismatched the endpoints, the more the surface helps."""
        gains = []
        for rx_orientation in (30.0, 60.0, 90.0):
            configuration = LinkConfiguration(
                tx_antenna=directional_antenna(orientation_deg=0.0),
                rx_antenna=directional_antenna(orientation_deg=rx_orientation),
                geometry=LinkGeometry.transmissive(0.42),
                metasurface=surface,
                deployment=DeploymentMode.TRANSMISSIVE,
            )
            result = LlamaSystem(configuration).optimize()
            gains.append(result.power_gain_db)
        assert gains[0] < gains[-1]


class TestFrequencyConsistency:
    def test_link_and_surface_frequency_sweeps_agree(self, surface):
        """The link-level frequency response tracks the surface's own
        transmission-efficiency curve."""
        surface_eff = []
        link_power = []
        for frequency in np.linspace(2.40e9, 2.50e9, 5):
            surface_eff.append(
                surface.transmission_efficiency_db(frequency, 30.0, 0.0, "x"))
            configuration = LinkConfiguration(
                tx_antenna=directional_antenna(orientation_deg=0.0),
                rx_antenna=directional_antenna(orientation_deg=90.0),
                geometry=LinkGeometry.transmissive(0.42),
                frequency_hz=float(frequency),
                metasurface=surface,
                deployment=DeploymentMode.TRANSMISSIVE,
            )
            link_power.append(WirelessLink(configuration).received_power_dbm(30.0, 0.0))
        surface_order = np.argsort(surface_eff)
        link_order = np.argsort(link_power)
        # The best and worst frequencies agree between the two views.
        assert surface_order[-1] == link_order[-1]
