"""Laboratory-equipment simulation.

The paper's prototype is driven by a Tektronix 2230G programmable DC
supply over VISA.  That hardware is not available to the reproduction,
so this package provides behaviourally faithful simulations: the supply
enforces channel/voltage limits and a finite switching rate, and the
VISA transport mimics the SCPI command surface the original Python
control script used.  The paper's turntable is a ``rx_orientation``
axis of :class:`~repro.channel.grid.ProbeGrid`, and its test chamber a
:class:`~repro.channel.multipath.MultipathEnvironment`.
"""

from repro.hardware.visa import SimulatedVisaSession, VisaError, VisaResourceManager
from repro.hardware.power_supply import (
    PowerSupplyChannel,
    ProgrammablePowerSupply,
    SupplyLimits,
)

__all__ = [
    "SimulatedVisaSession",
    "VisaError",
    "VisaResourceManager",
    "PowerSupplyChannel",
    "ProgrammablePowerSupply",
    "SupplyLimits",
]
