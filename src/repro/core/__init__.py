"""Core LLAMA contribution: Jones calculus, the programmable polarization
rotator, the real-time controller (Algorithm 1), receiver/supply
synchronization (Eq. 13), rotation-angle estimation (Sec. 3.4) and the
end-to-end :class:`~repro.core.llama.LlamaSystem` orchestration.
"""

from repro.core.jones import (
    JonesVector,
    JonesMatrix,
    rotation_matrix,
    quarter_wave_plate,
    birefringent_structure,
    polarization_rotator,
)
from repro.core.polarization import (
    PolarizationState,
    linear_polarization,
    circular_polarization,
    elliptical_polarization,
    polarization_loss_factor,
    polarization_mismatch_loss_db,
)
from repro.core.rotator import ProgrammableRotator, RotatorConfig
from repro.core.controller import (
    CentralizedController,
    GridSweepResult,
    SweepResult,
    VoltageSweepConfig,
)
from repro.core.synchronization import SampleVoltageSynchronizer, VoltageState
from repro.core.rotation_estimation import (
    RotationEstimate,
    RotationAngleEstimator,
)
from repro.core.llama import LlamaSystem, LlamaResult

__all__ = [
    "JonesVector",
    "JonesMatrix",
    "rotation_matrix",
    "quarter_wave_plate",
    "birefringent_structure",
    "polarization_rotator",
    "PolarizationState",
    "linear_polarization",
    "circular_polarization",
    "elliptical_polarization",
    "polarization_loss_factor",
    "polarization_mismatch_loss_db",
    "ProgrammableRotator",
    "RotatorConfig",
    "CentralizedController",
    "GridSweepResult",
    "SweepResult",
    "VoltageSweepConfig",
    "SampleVoltageSynchronizer",
    "VoltageState",
    "RotationEstimate",
    "RotationAngleEstimator",
    "LlamaSystem",
    "LlamaResult",
]
