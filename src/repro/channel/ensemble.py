"""Link ensembles: many stations, one budget pass (fleet deployments).

A dense deployment (paper Sec. 7 / conclusion) is N uplinks that share
everything — the access point, the metasurface, the multipath
environment — except a handful of per-station parameters: distance,
transmit power, transmit-antenna orientation and (optionally) carrier
frequency.  Each of those is already a vectorized axis of the
:class:`~repro.channel.link.WirelessLink` grid engine, so an ensemble
is nothing more than an *aligned* :class:`~repro.channel.grid.ProbeGrid`
whose per-station parameter arrays co-vary along one leading ``station``
axis, broadcast against whatever voltage grid is being probed.

:class:`LinkEnsemble` packages that idea: it owns one base link and the
per-station override arrays, and its one probe,
:meth:`LinkEnsemble.measure_aligned`, evaluates every station at its
bias pairs in a single NumPy pass of the link budget.  The voltages'
leading dimension is the station axis: 1 for a lattice every station
shares, the station count for per-station pairs or windows.  Scalar
parity is pinned by ``tests/channel/test_ensemble.py``: row ``i`` of
every stacked result equals probing the fresh per-station link of
:meth:`LinkEnsemble.link_for` to <= 1e-9 dB.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

import numpy as np

from repro.channel.grid import ProbeGrid
from repro.channel.link import LinkConfiguration, WirelessLink

#: Ensemble parameter name -> the grid axis it stacks along the station
#: dimension.
STATION_AXES: Dict[str, str] = {
    "distance_m": "distance",
    "tx_power_dbm": "tx_power",
    "tx_orientation_deg": "tx_orientation",
    "frequency_hz": "frequency",
}


class LinkEnsemble:
    """N stations sharing one base link, stacked on a leading axis.

    Parameters
    ----------
    base:
        The shared link template (a :class:`LinkConfiguration`, or an
        existing :class:`WirelessLink` to adopt).  Everything a
        per-station array does not override — access-point antenna,
        environment, bandwidth, deployment mode — comes from here.
    distance_m, tx_power_dbm, tx_orientation_deg, frequency_hz:
        Optional per-station parameter arrays.  All given arrays must
        share one length (the station count); omitted parameters stay at
        the base configuration's scalar values for every station.

    A zero-length parameter array is legal: the ensemble then has zero
    stations and every stacked probe returns an empty leading axis —
    the shape a fleet that has quarantined its whole roster still needs
    to evaluate without raising.
    """

    def __init__(self, base, *,
                 distance_m: Optional[Sequence[float]] = None,
                 tx_power_dbm: Optional[Sequence[float]] = None,
                 tx_orientation_deg: Optional[Sequence[float]] = None,
                 frequency_hz: Optional[Sequence[float]] = None):
        if isinstance(base, WirelessLink):
            self.link = base
        else:
            self.link = WirelessLink(base)
        given = {
            "distance_m": distance_m,
            "tx_power_dbm": tx_power_dbm,
            "tx_orientation_deg": tx_orientation_deg,
            "frequency_hz": frequency_hz,
        }
        self._parameters: Dict[str, np.ndarray] = {}
        counts = set()
        for name, values in given.items():
            if values is None:
                continue
            array = np.asarray(values, dtype=float).ravel()
            self._parameters[name] = array
            counts.add(array.size)
        if not self._parameters:
            raise ValueError(
                "an ensemble needs at least one per-station parameter array "
                f"(one of {tuple(STATION_AXES)})")
        if len(counts) > 1:
            raise ValueError(
                f"per-station arrays disagree on the station count: "
                f"{sorted(counts)}")
        self._station_count = counts.pop()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def configuration(self) -> LinkConfiguration:
        """The shared base configuration."""
        return self.link.configuration

    @property
    def station_count(self) -> int:
        """Number of stations stacked on the leading axis."""
        return self._station_count

    def parameter(self, name: str) -> np.ndarray:
        """One per-station parameter array (base scalar when not given)."""
        if name not in STATION_AXES:
            raise KeyError(f"unknown ensemble parameter {name!r}; expected "
                           f"one of {tuple(STATION_AXES)}")
        if name in self._parameters:
            return self._parameters[name]
        config = self.configuration
        defaults = {
            "distance_m": config.geometry.direct_distance_m,
            "tx_power_dbm": config.tx_power_dbm,
            "tx_orientation_deg": config.tx_antenna.orientation_deg,
            "frequency_hz": config.frequency_hz,
        }
        return np.full(self._station_count, defaults[name])

    # ------------------------------------------------------------------ #
    # The stacked evaluation plane
    # ------------------------------------------------------------------ #
    def station_grid(self, trailing_dims: int = 0) -> Dict[str, np.ndarray]:
        """Per-station axis arrays, shaped for a leading station axis.

        Returns ``{grid axis name: array}`` with each array reshaped to
        ``(station_count, 1, ... 1)`` (``trailing_dims`` singleton
        dimensions) so it broadcasts against any probe grid occupying
        the trailing dimensions.
        """
        shape = (self._station_count,) + (1,) * trailing_dims
        return {STATION_AXES[name]: values.reshape(shape)
                for name, values in self._parameters.items()}

    def aligned_grid(self, vx, vy) -> ProbeGrid:
        """The probe grid of :meth:`measure_aligned`, station axis leading.

        ``vx`` / ``vy`` are scalars or arrays whose leading dimension is
        1 (one voltage lattice shared by every station) or the station
        count (per-station points or windows).  Every array is padded on
        the right to the voltages' common rank, so the leading
        dimension is always the station axis; any other leading size
        raises ``ValueError``.
        """
        voltages = {"vx": np.asarray(vx, dtype=float),
                    "vy": np.asarray(vy, dtype=float)}
        rank = max(values.ndim for values in voltages.values())
        for name, values in voltages.items():
            if not values.ndim:
                continue
            if values.shape[0] not in (1, self._station_count):
                raise ValueError(
                    f"{name} leads with {values.shape[0]} points; a station "
                    f"probe's voltages lead with 1 (shared by every "
                    f"station) or the station count {self._station_count}")
            voltages[name] = values.reshape(
                values.shape + (1,) * (rank - values.ndim))
        return ProbeGrid.aligned(**self.station_grid(max(rank - 1, 0)),
                                 **voltages)

    def measure_aligned(self, vx, vy) -> np.ndarray:
        """Received power of every station at its bias pairs, one pass.

        The station axis leads (see :meth:`aligned_grid`): a ``(1, K)``
        lattice gives ``(station_count, K)``, per-station ``(S,)`` pairs
        give ``(S,)`` and ``(S, k)`` windows give ``(S, k)``.  Row ``i``
        matches probing :meth:`link_for` station ``i`` at its voltages.
        """
        return self.link.evaluate_grid(self.aligned_grid(vx, vy))

    def _station_index(self, index: int) -> int:
        if not -self._station_count <= index < self._station_count:
            raise IndexError(f"station index {index} out of range for "
                             f"{self._station_count} stations")
        return index % self._station_count

    # ------------------------------------------------------------------ #
    # Scalar views (parity references and shims)
    # ------------------------------------------------------------------ #
    def configuration_for(self, station_index: int) -> LinkConfiguration:
        """The scalar configuration of one station (for parity/shims)."""
        index = self._station_index(station_index)
        config = self.configuration
        if "frequency_hz" in self._parameters:
            config = replace(config, frequency_hz=float(
                self._parameters["frequency_hz"][index]))
        if "tx_power_dbm" in self._parameters:
            config = replace(config, tx_power_dbm=float(
                self._parameters["tx_power_dbm"][index]))
        if "tx_orientation_deg" in self._parameters:
            config = replace(config, tx_antenna=config.tx_antenna.rotated(
                float(self._parameters["tx_orientation_deg"][index])))
        if "distance_m" in self._parameters:
            # Reuse the engine's own distance-axis geometry rule so the
            # scalar reference cannot drift from the stacked path.
            config = replace(config, geometry=self.link._geometry_at_distance(
                float(self._parameters["distance_m"][index])))
        return config

    def link_for(self, station_index: int) -> WirelessLink:
        """A fresh scalar link for one station (parity reference)."""
        return WirelessLink(self.configuration_for(station_index))


__all__ = ["STATION_AXES", "LinkEnsemble"]
