"""Named N-D probe grids: the operating-point language of the engine.

Every evaluation in the reproduction probes received power at a set of
operating points drawn from a handful of named axes: the two bias
voltages (``vx`` / ``vy``) and the link parameters of
:data:`SWEEP_AXES` (``frequency`` / ``tx_power`` / ``distance`` /
``rx_orientation`` / ``tx_orientation``).  A :class:`ProbeGrid` names
the axes of one such
set and carries broadcast-ready value arrays for each, so
:meth:`repro.channel.link.WirelessLink.evaluate` can compute the whole
Jones/Friis/multipath budget over the full grid in a single NumPy pass.

Two layouts cover every workload:

* :meth:`ProbeGrid.product` — the outer-product grid.  Each array-
  valued axis occupies its own dimension of the result, in declaration
  order; scalar axis values pin a parameter without adding a dimension.
  This is what figure runners use for joint heatmaps (e.g. a
  frequency x distance gain surface).
* :meth:`ProbeGrid.aligned` — pre-shaped arrays that broadcast against
  each other element-wise, for probes whose axes co-vary (the grid
  controller probes per-point voltage windows this way: axis values
  shaped ``(n, 1)`` against ``(n, k)`` voltage grids).

Grids are immutable and validate their axis names on construction, so a
typo fails loudly at build time rather than deep inside the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike, NDArray

FloatArray = NDArray[np.float64]

#: Anything accepted as axis values: scalars, sequences, arrays.
AxisValues = Union[float, int, ArrayLike]

#: Link parameters the evaluation engine can vectorize over (in addition
#: to the ``vx`` / ``vy`` bias-voltage axes).
SWEEP_AXES = ("frequency", "tx_power", "distance", "rx_orientation",
              "tx_orientation")

#: Bias-voltage axes of the probe space.
VOLTAGE_AXES = ("vx", "vy")

#: Every axis name a :class:`ProbeGrid` accepts.
GRID_AXES = VOLTAGE_AXES + SWEEP_AXES


@dataclass(frozen=True, eq=False)
class GridAxis:
    """One named axis of a :class:`ProbeGrid`.

    Compared (and hashed) by identity: the dataclass-generated value
    equality would reduce over ndarray element comparisons and raise.

    Attributes
    ----------
    name:
        Axis name, one of :data:`GRID_AXES`.
    values:
        The axis points as given (1-D for product axes, any broadcast-
        ready shape for aligned axes, 0-d for pinned scalars).
    shaped:
        The broadcast-ready array the engine consumes; for product axes
        this is ``values`` reshaped into the axis's dimension slot.
    """

    name: str
    values: FloatArray
    shaped: FloatArray

    def __post_init__(self) -> None:
        if self.name not in GRID_AXES:
            raise ValueError(f"unknown grid axis {self.name!r}; expected one "
                             f"of {GRID_AXES}")


@dataclass(frozen=True, eq=False)
class ProbeGrid:
    """A named, broadcastable N-D grid of link operating points.

    Build with :meth:`product` (outer-product semantics, the common
    case) or :meth:`aligned` (pre-broadcast arrays).  The grid's
    ``shape`` is the broadcast shape of its axes and is the shape of the
    power array :meth:`repro.channel.link.WirelessLink.evaluate`
    returns; a grid with no array-valued axes is 0-d and evaluates to a
    scalar-shaped array.  Grids compare (and hash) by identity — value
    equality over ndarray axes has no single sensible reduction.

    ``shape`` and ``size`` are computed once, at construction, so axes
    that do not broadcast raise ``ValueError`` there.
    """

    axes: Tuple[GridAxis, ...]
    #: Broadcast shape of the grid (and of its evaluation result).
    shape: Tuple[int, ...] = field(init=False, repr=False)
    #: Total number of operating points.
    size: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        names = [axis.name for axis in self.axes]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(f"duplicate grid axes: {sorted(duplicates)}")
        shape = np.broadcast_shapes(*(axis.shaped.shape for axis in self.axes))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "size", math.prod(shape))

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def product(cls, **axes: AxisValues) -> "ProbeGrid":
        """Outer-product grid over named axis values.

        Each array-valued axis is flattened to 1-D and occupies its own
        dimension of the grid, in keyword order (the first axis is the
        leading dimension).  Scalar (0-d) values pin the axis without
        adding a dimension::

            ProbeGrid.product(frequency=freqs, distance=dists)  # 2-D
            ProbeGrid.product(frequency=2.45e9, vx=vs, vy=vs)   # 2-D
        """
        specs: List[Tuple[str, FloatArray]] = [
            (name, np.asarray(values, dtype=np.float64))
            for name, values in axes.items()]
        rank = sum(1 for _name, values in specs if values.ndim > 0)
        built: List[GridAxis] = []
        position = 0
        for name, values in specs:
            if values.ndim == 0:
                built.append(GridAxis(name=name, values=values, shaped=values))
                continue
            flat = values.ravel()
            shaped = flat.reshape((flat.size,) + (1,) * (rank - position - 1))
            built.append(GridAxis(name=name, values=flat, shaped=shaped))
            position += 1
        return cls(axes=tuple(built))

    @classmethod
    def aligned(cls, **axes: AxisValues) -> "ProbeGrid":
        """Grid of pre-shaped axis arrays that broadcast element-wise.

        Unlike :meth:`product`, values are used exactly as given; the
        grid shape is their common broadcast shape.  This is the layout
        for probes whose axes co-vary, e.g. per-point voltage windows::

            ProbeGrid.aligned(tx_power=powers[:, None], vx=grid_vx,
                              vy=grid_vy)
        """
        built = tuple(
            GridAxis(name=name, values=np.asarray(values, dtype=np.float64),
                     shaped=np.asarray(values, dtype=np.float64))
            for name, values in axes.items())
        return cls(axes=built)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def names(self) -> Tuple[str, ...]:
        """Axis names in declaration order."""
        return tuple(axis.name for axis in self.axes)

    @property
    def sweep_names(self) -> Tuple[str, ...]:
        """The link-parameter (non-voltage) axes of the grid."""
        return tuple(axis.name for axis in self.axes
                     if axis.name in SWEEP_AXES)

    @property
    def ndim(self) -> int:
        """Number of result dimensions."""
        return len(self.shape)

    def __contains__(self, name: str) -> bool:
        return any(axis.name == name for axis in self.axes)

    def __iter__(self) -> Iterator[GridAxis]:
        return iter(self.axes)

    def axis(self, name: str) -> GridAxis:
        """The named axis (raises ``KeyError`` when absent)."""
        for axis in self.axes:
            if axis.name == name:
                return axis
        raise KeyError(f"grid has no axis {name!r}; axes are {self.names}")

    def values(self, name: str) -> FloatArray:
        """The axis points of one axis, as given at construction."""
        return self.axis(name).values

    def shaped(self, name: str) -> FloatArray:
        """The broadcast-ready array of one axis."""
        return self.axis(name).shaped

    def expand(self, name: str) -> FloatArray:
        """One axis's values broadcast to the full grid shape.

        Handy for labelling results: ``grid.expand("frequency")`` is the
        frequency of every cell of the evaluated power array.
        """
        expanded: FloatArray = np.broadcast_to(self.shaped(name), self.shape)
        return expanded

    def bias_points(self) -> Tuple[FloatArray, FloatArray]:
        """``(vx, vy)`` at every operating point, broadcast to :attr:`shape`.

        A voltage axis absent from the grid reads 0 V, the engine's
        default bias.
        """
        shape = self.shape
        vx: FloatArray = np.broadcast_to(
            self.shaped("vx") if "vx" in self else 0.0, shape)
        vy: FloatArray = np.broadcast_to(
            self.shaped("vy") if "vy" in self else 0.0, shape)
        return vx, vy

    def point_values(self) -> Dict[str, FloatArray]:
        """Flattened per-point value arrays, one ``(size,)`` per axis."""
        return {axis.name: self.expand(axis.name).ravel()
                for axis in self.axes}

    # ------------------------------------------------------------------ #
    # Splitting (bounded slices of one probe)
    # ------------------------------------------------------------------ #
    def split_dim(self) -> Optional[int]:
        """The result dimension :meth:`split` shards along.

        The first dimension of :attr:`shape` with the largest extent, or
        ``None`` when the grid has no dimension longer than one point
        (0-d grids, all-singleton shapes) — such grids cannot be split.
        """
        shape = self.shape
        if not shape or max(shape) <= 1:
            return None
        return int(np.argmax(shape))

    def _sliced(self, axis: GridAxis, dim: int, lo: int, hi: int) -> GridAxis:
        """``axis`` restricted to ``[lo, hi)`` along result dim ``dim``
        (axes broadcasting over that dimension are returned unchanged)."""
        offset = dim - (self.ndim - axis.shaped.ndim)
        if offset < 0 or axis.shaped.shape[offset] == 1:
            return axis
        index = (slice(None),) * offset + (slice(lo, hi),)
        shaped = axis.shaped[index]
        if axis.values.shape == axis.shaped.shape:
            values = axis.values[index]
        elif (axis.values.ndim == 1 and
              axis.values.size == axis.shaped.shape[offset]):
            # Product-style axis: the flat points own this dimension.
            values = axis.values[lo:hi]
        else:
            values = shaped
        return GridAxis(name=axis.name, values=values, shaped=shaped)

    def split(self, parts: int) -> Tuple["ProbeGrid", ...]:
        """Shard the grid into at most ``parts`` contiguous slices.

        The grid is cut along :meth:`split_dim` (the longest dimension)
        into near-equal contiguous chunks; each shard is a valid :class:`ProbeGrid` over the same
        axes.  Concatenating the shards' evaluation results along
        ``split_dim()`` — in order — reproduces the full grid's result
        bit-for-bit, which is how :class:`repro.world.WorldTimeline`
        streams its retune cube in bounded slices.
        Unsplittable grids and ``parts <= 1`` return ``(self,)``.
        """
        if parts <= 1:
            return (self,)
        dim = self.split_dim()
        if dim is None:
            return (self,)
        extent = self.shape[dim]
        chunks = min(parts, extent)
        bounds = np.linspace(0, extent, chunks + 1).astype(int)
        shards: List[ProbeGrid] = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            shards.append(ProbeGrid(axes=tuple(
                self._sliced(axis, dim, int(lo), int(hi))
                for axis in self.axes)))
        return tuple(shards)


__all__ = ["GRID_AXES", "GridAxis", "ProbeGrid", "SWEEP_AXES",
           "VOLTAGE_AXES"]
