"""ProbeGrid sharding semantics: split_dim / split.

The parallel executor's slice plan rests on one contract: cutting a
grid along its longest dimension into contiguous chunks and
concatenating the per-shard evaluation results along that dimension —
in order — reproduces the full grid's result bit-for-bit.  This module
pins the plan itself (which dimension, chunk bounds) and
the reassembly parity against ``WirelessLink.evaluate_grid`` for
product grids, aligned co-varying grids, and the degenerate shapes
(0-d, all-scalar, extent-1) that must refuse to split.
"""

import numpy as np
import pytest

from repro.channel.grid import ProbeGrid
from repro.experiments.scenarios import TransmissiveScenario

FREQUENCIES = np.linspace(2.40e9, 2.50e9, 7)
DISTANCES = np.array([0.30, 0.42, 0.54])
VX = np.array([0.0, 7.0, 15.0, 22.0, 30.0])
VY = np.array([2.0, 12.0, 28.0])


@pytest.fixture(scope="module")
def link():
    return TransmissiveScenario().link()


class TestSplitPlan:
    def test_split_dim_is_first_largest_dimension(self):
        grid = ProbeGrid.product(frequency=FREQUENCIES, distance=DISTANCES,
                                 vx=VX)
        assert grid.shape == (7, 3, 5)
        assert grid.split_dim() == 0

    def test_split_dim_ties_pick_the_first(self):
        grid = ProbeGrid.product(vx=VX, vy=np.linspace(0.0, 30.0, VX.size))
        assert grid.shape == (VX.size, VX.size)
        assert grid.split_dim() == 0

    def test_unsplittable_grids(self):
        assert ProbeGrid.product(frequency=2.45e9).split_dim() is None
        one_point = ProbeGrid.product(vx=[7.0], vy=[2.0])
        assert one_point.split_dim() is None
        assert one_point.split(4) == (one_point,)

    def test_parts_at_most_one_returns_self(self):
        grid = ProbeGrid.product(frequency=FREQUENCIES)
        assert grid.split(1) == (grid,)
        assert grid.split(0) == (grid,)

    def test_more_parts_than_extent_caps_at_extent(self):
        grid = ProbeGrid.product(distance=DISTANCES)
        shards = grid.split(16)
        assert len(shards) == DISTANCES.size
        assert all(shard.shape == (1,) for shard in shards)

    def test_shards_cover_the_extent_contiguously(self):
        grid = ProbeGrid.product(frequency=FREQUENCIES, vx=VX, vy=VY)
        shards = grid.split(3)
        assert sum(shard.shape[0] for shard in shards) == FREQUENCIES.size
        stitched = np.concatenate([shard.values("frequency")
                                   for shard in shards])
        np.testing.assert_array_equal(stitched, FREQUENCIES)

    def test_shard_axes_keep_names_and_untouched_axes(self):
        grid = ProbeGrid.product(frequency=FREQUENCIES, vx=VX, vy=VY)
        for shard in grid.split(2):
            assert shard.names == grid.names
            np.testing.assert_array_equal(shard.values("vx"), VX)
            np.testing.assert_array_equal(shard.values("vy"), VY)


class TestShardedEvaluationParity:
    def _stitched(self, link, grid, parts):
        dim = grid.split_dim()
        slabs = [link.evaluate_grid(shard) for shard in grid.split(parts)]
        return np.concatenate(slabs, axis=dim)

    @pytest.mark.parametrize("parts", [2, 3, 5])
    def test_product_grid(self, link, parts):
        grid = ProbeGrid.product(frequency=FREQUENCIES, distance=DISTANCES,
                                 vx=VX, vy=VY)
        full = link.evaluate_grid(grid)
        np.testing.assert_array_equal(self._stitched(link, grid, parts),
                                      full)

    def test_product_grid_with_pinned_scalar_axis(self, link):
        grid = ProbeGrid.product(frequency=2.45e9, vx=VX, vy=VY)
        full = link.evaluate_grid(grid)
        np.testing.assert_array_equal(self._stitched(link, grid, 2), full)

    def test_aligned_covarying_grid(self, link):
        # The grid-controller layout: per-point voltage windows, axis
        # values shaped (n, 1) against an (n, k) voltage grid.
        centers = np.linspace(0.0, 30.0, 9)[:, None]
        window = np.linspace(-2.0, 2.0, 4)
        grid = ProbeGrid.aligned(vx=np.clip(centers + window, 0.0, 30.0),
                                 vy=centers)
        assert grid.shape == (9, 4)
        full = link.evaluate_grid(grid)
        np.testing.assert_array_equal(self._stitched(link, grid, 3), full)

    def test_aligned_grid_with_broadcast_axis(self, link):
        # ``distance`` broadcasts over the split dimension (shape (1,)):
        # every shard must keep it whole.
        grid = ProbeGrid.aligned(frequency=FREQUENCIES[:, None],
                                 distance=np.array([0.42]),
                                 vx=np.array([0.0, 15.0, 30.0]))
        full = link.evaluate_grid(grid)
        shards = grid.split(4)
        for shard in shards:
            np.testing.assert_array_equal(shard.values("distance"),
                                          grid.values("distance"))
        np.testing.assert_array_equal(self._stitched(link, grid, 4), full)

    def test_uneven_chunks(self, link):
        grid = ProbeGrid.product(frequency=np.linspace(2.40e9, 2.50e9, 11),
                                 vx=VX)
        shards = grid.split(4)
        assert [shard.shape[0] for shard in shards] == [2, 3, 3, 3]
        full = link.evaluate_grid(grid)
        np.testing.assert_array_equal(self._stitched(link, grid, 4), full)
