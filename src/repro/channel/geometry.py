"""Simple 3-D geometry for link layouts (paper Sec. 4 and Fig. 14).

The experiments only need planar layouts: a transmitter, a receiver, and
the metasurface either between them (transmissive) or off to the side
(reflective).  We keep full 3-D positions so layouts remain explicit and
easy to extend, but provide helpers for the canonical paper setups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Position:
    """A point in 3-D space, metres."""

    x: float
    y: float
    z: float = 0.0

    def as_array(self) -> np.ndarray:
        """Return the position as a length-3 ndarray."""
        return np.array([self.x, self.y, self.z], dtype=float)

    def distance_to(self, other: "Position") -> float:
        """Euclidean distance to another point (metres)."""
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))

    def midpoint(self, other: "Position") -> "Position":
        """Midpoint between this point and another."""
        mid = 0.5 * (self.as_array() + other.as_array())
        return Position(float(mid[0]), float(mid[1]), float(mid[2]))

    def translated(self, dx: float = 0.0, dy: float = 0.0,
                   dz: float = 0.0) -> "Position":
        """Return a copy shifted by the given offsets."""
        return Position(self.x + dx, self.y + dy, self.z + dz)


@dataclass(frozen=True)
class LinkGeometry:
    """Geometry of a transmitter/receiver pair with an optional surface.

    Attributes
    ----------
    transmitter, receiver:
        Endpoint positions.
    surface:
        Centre of the metasurface aperture (may equal the midpoint of the
        endpoints for transmissive layouts).
    """

    transmitter: Position
    receiver: Position
    surface: Position

    @property
    def direct_distance_m(self) -> float:
        """Transmitter-to-receiver distance."""
        return self.transmitter.distance_to(self.receiver)

    @property
    def tx_to_surface_m(self) -> float:
        """Transmitter-to-surface distance."""
        return self.transmitter.distance_to(self.surface)

    @property
    def surface_to_rx_m(self) -> float:
        """Surface-to-receiver distance."""
        return self.surface.distance_to(self.receiver)

    @property
    def via_surface_distance_m(self) -> float:
        """Total path length of the route that goes via the surface."""
        return self.tx_to_surface_m + self.surface_to_rx_m

    def excess_path_m(self) -> float:
        """Extra path length of the surface route versus the direct route."""
        return self.via_surface_distance_m - self.direct_distance_m

    @staticmethod
    def transmissive(tx_rx_distance_m: float,
                     surface_fraction: float = 0.5) -> "LinkGeometry":
        """Canonical transmissive layout (paper Fig. 14, left).

        The endpoints face each other along the x axis and the surface
        sits ``surface_fraction`` of the way from transmitter to receiver.
        """
        if not (math.isfinite(tx_rx_distance_m) and tx_rx_distance_m > 0):
            raise ValueError("Tx-Rx distance must be positive and finite")
        if not (0.0 < surface_fraction < 1.0):
            raise ValueError("surface fraction must be in (0, 1)")
        tx = Position(0.0, 0.0)
        rx = Position(tx_rx_distance_m, 0.0)
        surface = Position(tx_rx_distance_m * surface_fraction, 0.0)
        return LinkGeometry(tx, rx, surface)

    @staticmethod
    def reflective(tx_rx_separation_m: float,
                   surface_offset_m: float) -> "LinkGeometry":
        """Canonical reflective layout (paper Fig. 14, right).

        Transmitter and receiver sit ``tx_rx_separation_m`` apart on the
        same side of the surface; the surface is ``surface_offset_m``
        away along the perpendicular bisector of the pair.
        """
        if not (math.isfinite(tx_rx_separation_m) and tx_rx_separation_m > 0):
            raise ValueError("Tx-Rx separation must be positive and finite")
        if not (math.isfinite(surface_offset_m) and surface_offset_m > 0):
            raise ValueError("surface offset must be positive and finite")
        tx = Position(0.0, 0.0)
        rx = Position(tx_rx_separation_m, 0.0)
        surface = Position(tx_rx_separation_m / 2.0, surface_offset_m)
        return LinkGeometry(tx, rx, surface)

    def angle_at_transmitter_deg(self) -> float:
        """Angle at the transmitter between the surface and the receiver.

        In a reflective deployment the antennas are aimed at the surface,
        so this is the off-boresight angle of the *direct* Tx->Rx path.
        Zero for the colinear transmissive layout.
        """
        return self._angle_between(self.transmitter, self.surface,
                                   self.receiver)

    def angle_at_receiver_deg(self) -> float:
        """Angle at the receiver between the surface and the transmitter."""
        return self._angle_between(self.receiver, self.surface,
                                   self.transmitter)

    @staticmethod
    def _angle_between(apex: Position, first: Position,
                       second: Position) -> float:
        to_first = first.as_array() - apex.as_array()
        to_second = second.as_array() - apex.as_array()
        norm_first = np.linalg.norm(to_first)
        norm_second = np.linalg.norm(to_second)
        if norm_first < 1e-12 or norm_second < 1e-12:
            raise ValueError("degenerate geometry: coincident points")
        cosine = float(np.clip(np.dot(to_first, to_second) /
                               (norm_first * norm_second), -1.0, 1.0))
        return math.degrees(math.acos(cosine))

    def incidence_angle_deg(self) -> float:
        """Angle of incidence at the surface for the Tx->surface->Rx route.

        0 degrees means normal incidence (the transmissive layout); the
        reflective layout has a non-zero specular angle.
        """
        to_tx = self.transmitter.as_array() - self.surface.as_array()
        to_rx = self.receiver.as_array() - self.surface.as_array()
        norm_tx = np.linalg.norm(to_tx)
        norm_rx = np.linalg.norm(to_rx)
        if norm_tx < 1e-12 or norm_rx < 1e-12:
            raise ValueError("surface coincides with an endpoint")
        cosine = float(np.clip(np.dot(to_tx, to_rx) / (norm_tx * norm_rx),
                               -1.0, 1.0))
        # Angle between the two legs; the incidence angle off the surface
        # normal is half of the supplementary angle.
        full = math.degrees(math.acos(cosine))
        return (180.0 - full) / 2.0


__all__ = ["Position", "LinkGeometry"]
