"""Polarization-based access control (paper conclusion / future work).

Because the surface controls the polarization arriving at each receiver,
it can deliberately *mismatch* an unauthorised device while serving the
intended one: choose the bias pair that maximizes the intended
receiver's power subject to keeping the unauthorised receiver below its
decoding threshold (or simply maximize the power ratio between them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.controller import bias_lattice
from repro.network.deployment import DenseDeployment


@dataclass(frozen=True)
class AccessControlResult:
    """Outcome of a polarization access-control optimization."""

    intended_station: str
    unauthorized_station: str
    bias_pair: Tuple[float, float]
    intended_rssi_dbm: float
    unauthorized_rssi_dbm: float
    baseline_isolation_db: float

    @property
    def isolation_db(self) -> float:
        """Power margin of the intended over the unauthorised receiver."""
        return self.intended_rssi_dbm - self.unauthorized_rssi_dbm

    @property
    def isolation_improvement_db(self) -> float:
        """How much the surface improves the isolation over no-surface."""
        return self.isolation_db - self.baseline_isolation_db


def polarization_access_control(deployment: DenseDeployment,
                                intended_station: str,
                                unauthorized_station: str,
                                step_v: float = 3.0,
                                minimum_intended_rssi_dbm: Optional[float] = None
                                ) -> AccessControlResult:
    """Find the bias pair that favours one station over another.

    Parameters
    ----------
    deployment:
        The dense deployment both stations belong to.
    intended_station, unauthorized_station:
        Names of the station to serve and the station to suppress.
    step_v:
        Bias grid step for the search.
    minimum_intended_rssi_dbm:
        Optional floor on the intended station's RSSI; bias pairs that
        drop it below this level are rejected even if they isolate the
        unauthorised station better.

    Returns
    -------
    AccessControlResult
        The chosen bias pair and the achieved isolation.
    """
    if intended_station == unauthorized_station:
        raise ValueError("intended and unauthorized stations must differ")
    levels = bias_lattice(step_v)
    # Validate both names up front (raises KeyError for unknown ones).
    names = (intended_station, unauthorized_station)
    for name in names:
        deployment.station(name)

    baselines = deployment.ensemble_for(
        names, with_surface=False).measure_aligned(0.0, 0.0)
    baseline_isolation = float(baselines[0] - baselines[1])
    vx_grid, vy_grid = np.meshgrid(levels, levels, indexing="ij")
    vx_flat, vy_flat = vx_grid.ravel(), vy_grid.ravel()
    # One fleet-stacked probe evaluates both stations over the whole
    # grid; row 0 is the intended station, row 1 the unauthorised one.
    rssi = deployment.ensemble_for(names).measure_aligned(vx_flat[None],
                                                          vy_flat[None])
    intended, unauthorized = rssi[0], rssi[1]
    isolation = intended - unauthorized
    allowed = (np.ones_like(intended, dtype=bool)
               if minimum_intended_rssi_dbm is None
               else intended >= minimum_intended_rssi_dbm)
    if not np.any(allowed):
        raise ValueError(
            "no bias pair satisfies the minimum intended RSSI constraint")
    # First maximum in vx-major order, matching the historical strict-">"
    # nested scalar loop.
    best_index = int(np.argmax(np.where(allowed, isolation, -np.inf)))
    return AccessControlResult(
        intended_station=intended_station,
        unauthorized_station=unauthorized_station,
        bias_pair=(float(vx_flat[best_index]), float(vy_flat[best_index])),
        intended_rssi_dbm=float(intended[best_index]),
        unauthorized_rssi_dbm=float(unauthorized[best_index]),
        baseline_isolation_db=baseline_isolation,
    )


__all__ = ["AccessControlResult", "polarization_access_control"]
