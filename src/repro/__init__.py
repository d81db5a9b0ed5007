"""LLAMA reproduction: programmable metasurfaces for IoT polarization matching.

This package reproduces, in simulation, the system presented in
"Pushing the Physical Limits of IoT Devices with Programmable
Metasurfaces" (NSDI 2021): a low-cost, voltage-programmable metasurface
polarization rotator deployed in the radio environment, a centralized
controller that tunes it in real time from receiver power reports, and
the evaluation harness that regenerates every table and figure of the
paper's evaluation.

Top-level convenience imports expose the most common entry points; see
the subpackages for the full API:

* :mod:`repro.api` -- batched measurement plane: backends, sessions, builder
* :mod:`repro.core` -- Jones calculus, rotator, controller, LLAMA system
* :mod:`repro.metasurface` -- EM model of the surface and its design space
* :mod:`repro.channel` -- antennas, propagation, multipath, link budgets
* :mod:`repro.radio` -- baseband signals and the simulated SDR transceiver
* :mod:`repro.hardware` -- programmable power supply over simulated VISA
* :mod:`repro.devices` -- Wi-Fi / BLE / Zigbee endpoint models
* :mod:`repro.sensing` -- respiration sensing application
* :mod:`repro.experiments` -- per-figure experiment runners
"""

from repro.constants import DEFAULT_CENTER_FREQUENCY_HZ, ISM_2G4_BAND
from repro.core.controller import CentralizedController, VoltageSweepConfig
from repro.core.jones import JonesMatrix, JonesVector, polarization_rotator
from repro.core.llama import LlamaResult, LlamaSystem
from repro.core.polarization import (
    PolarizationState,
    linear_polarization,
    polarization_loss_factor,
    polarization_mismatch_loss_db,
)
from repro.core.rotator import ProgrammableRotator, RotatorConfig
from repro.channel.antenna import (
    Antenna,
    dipole_antenna,
    directional_antenna,
    omni_antenna,
)
from repro.channel.geometry import LinkGeometry, Position
from repro.channel.link import DeploymentMode, LinkConfiguration, WirelessLink
from repro.channel.multipath import MultipathEnvironment
from repro.metasurface.design import (
    fr4_naive_design,
    llama_design,
    rogers_reference_design,
)
from repro.metasurface.surface import Metasurface, SurfaceMode

# The batched measurement-plane API builds on core + channel, so it is
# imported last (keeps the submodule import order acyclic).
from repro.api import (
    CallableBackend,
    LinkBackend,
    LinkSession,
    MeasurementBackend,
    ScenarioBuilder,
)

__version__ = "1.0.0"

__all__ = [
    "MeasurementBackend",
    "LinkBackend",
    "CallableBackend",
    "LinkSession",
    "ScenarioBuilder",
    "DEFAULT_CENTER_FREQUENCY_HZ",
    "ISM_2G4_BAND",
    "CentralizedController",
    "VoltageSweepConfig",
    "JonesMatrix",
    "JonesVector",
    "polarization_rotator",
    "LlamaResult",
    "LlamaSystem",
    "PolarizationState",
    "linear_polarization",
    "polarization_loss_factor",
    "polarization_mismatch_loss_db",
    "ProgrammableRotator",
    "RotatorConfig",
    "Antenna",
    "dipole_antenna",
    "directional_antenna",
    "omni_antenna",
    "LinkGeometry",
    "Position",
    "DeploymentMode",
    "LinkConfiguration",
    "WirelessLink",
    "MultipathEnvironment",
    "fr4_naive_design",
    "llama_design",
    "rogers_reference_design",
    "Metasurface",
    "SurfaceMode",
    "__version__",
]
