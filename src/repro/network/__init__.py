"""Multi-link extension: dense IoT deployments sharing one metasurface.

The paper's conclusion sketches the next step beyond single links: "When
there are multiple IoT devices in different polarization orientations,
tuning the signal polarization can lead to a new form of polarization
reuse or access control and improve the network throughput for dense IoT
deployments."  This package implements that extension on top of the
single-link machinery:

* :mod:`repro.network.deployment` — a dense deployment of IoT stations
  around one access point and one shared LLAMA surface, built from its
  one description, the :class:`FleetSpec` of :class:`StationSpec`
  records;
* :mod:`repro.network.scheduler` — TDMA schedulers that decide which
  bias pair serves which station in each slot (fixed-bias baseline,
  per-station retuning, and orientation-clustered "polarization reuse");
* :mod:`repro.network.access_control` — polarization-based access
  control: choosing a bias pair that serves the intended station while
  keeping an unauthorised receiver below its decoding threshold.

Every utility search in this package is *fleet-stacked*: it probes
``deployment.ensemble_for(names)`` — a
:class:`repro.channel.ensemble.LinkEnsemble` with the stations on the
leading axis — through its one probe, ``measure_aligned``, so all
stations evaluate in one NumPy pass of the link budget
(``best_bias_per_station`` and ``compromise_bias`` are such searches).
The session facade over a spec lives in :mod:`repro.api.fleet`.
"""

from repro.network.deployment import (
    SURFACE_DESIGNS,
    DenseDeployment,
    FleetSpec,
    StationSpec,
    TopologySpec,
)
from repro.network.scheduler import (
    ScheduleResult,
    StationAllocation,
    FixedBiasScheduler,
    PerStationScheduler,
    PolarizationReuseScheduler,
    baseline_without_surface,
    jain_fairness_index,
)
from repro.network.access_control import (
    AccessControlResult,
    polarization_access_control,
)

__all__ = [
    "SURFACE_DESIGNS",
    "DenseDeployment",
    "FleetSpec",
    "StationSpec",
    "TopologySpec",
    "ScheduleResult",
    "StationAllocation",
    "FixedBiasScheduler",
    "PerStationScheduler",
    "PolarizationReuseScheduler",
    "baseline_without_surface",
    "jain_fairness_index",
    "AccessControlResult",
    "polarization_access_control",
]
