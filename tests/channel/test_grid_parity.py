"""Parity suite for the N-D probe-grid evaluation engine.

Pins ``WirelessLink.evaluate(grid)`` against nested scalar loops (a
fresh link per operating point via ``dataclasses.replace``) to
<= 1e-9 dB across every subset of the sweep axes, both deployment
modes, both environments, and degenerate 0-d/1-d grids.  Also pins the
thin views (``received_power_dbm`` / ``_batch``) to the engine, the
grid-native controller searches to their scalar counterparts, and the
:class:`ProbeGrid` validation behaviour.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.api import LinkBackend, LinkSession, ProbeGrid
from repro.channel.grid import GRID_AXES, GridAxis, SWEEP_AXES, VOLTAGE_AXES
from repro.channel.geometry import LinkGeometry
from repro.channel.link import DeploymentMode, LinkReport, WirelessLink
from repro.core.controller import CentralizedController, VoltageSweepConfig
from repro.experiments.scenarios import ReflectiveScenario, TransmissiveScenario

TOLERANCE_DB = 1e-9

AXIS_VALUES = {
    "frequency": np.array([2.41e9, 2.47e9]),
    "tx_power": np.array([-17.0, 0.0, 13.0]),
    "distance": np.array([0.30, 0.54]),
    "rx_orientation": np.array([0.0, 60.0]),
    "tx_orientation": np.array([15.0, 90.0]),
}

VX_VALUES = np.array([0.0, 7.0, 30.0])
VY_VALUES = np.array([2.0, 22.0])


def _scenarios():
    return [
        ("transmissive-anechoic", TransmissiveScenario(absorber=True)),
        ("transmissive-multipath", TransmissiveScenario(absorber=False)),
        ("reflective-anechoic", ReflectiveScenario(absorber=True)),
        ("reflective-multipath", ReflectiveScenario(absorber=False)),
    ]


def _axis_subsets():
    subsets = []
    for count in range(len(SWEEP_AXES) + 1):
        subsets.extend(itertools.combinations(SWEEP_AXES, count))
    return subsets


def _scalar_link_at(link, point):
    """The scalar reference: a fresh link with every axis value replaced."""
    config = link.configuration
    if "frequency" in point:
        config = replace(config, frequency_hz=float(point["frequency"]))
    if "tx_power" in point:
        config = replace(config, tx_power_dbm=float(point["tx_power"]))
    if "distance" in point:
        value = float(point["distance"])
        if config.aim_at_surface or config.deployment is DeploymentMode.REFLECTIVE:
            geometry = LinkGeometry.reflective(
                config.geometry.direct_distance_m, value)
        else:
            geometry = LinkGeometry.transmissive(value)
        config = replace(config, geometry=geometry)
    if "rx_orientation" in point:
        config = replace(config, rx_antenna=config.rx_antenna.rotated(
            float(point["rx_orientation"])))
    if "tx_orientation" in point:
        config = replace(config, tx_antenna=config.tx_antenna.rotated(
            float(point["tx_orientation"])))
    return WirelessLink(config)


def _nested_scalar_powers(link, grid):
    """Evaluate a product grid with one scalar link rebuild per cell."""
    powers = np.empty(grid.size)
    flattened = grid.point_values()
    for index in range(grid.size):
        point = {name: values[index] for name, values in flattened.items()}
        vx = float(point.pop("vx", 0.0))
        vy = float(point.pop("vy", 0.0))
        powers[index] = _scalar_link_at(link, point).received_power_dbm(vx, vy)
    return powers.reshape(grid.shape)


class TestGridParityAllSubsets:
    """evaluate(grid) vs nested scalar loops across every axis subset."""

    @pytest.mark.parametrize("subset", _axis_subsets(),
                             ids=lambda s: "+".join(s) or "voltages-only")
    @pytest.mark.parametrize("name,scenario", _scenarios())
    def test_with_surface_parity(self, subset, name, scenario):
        link = scenario.link()
        axes = {axis: AXIS_VALUES[axis] for axis in subset}
        grid = ProbeGrid.product(**axes, vx=VX_VALUES, vy=VY_VALUES)
        vectorized = link.evaluate(grid)
        assert vectorized.shape == grid.shape
        scalar = _nested_scalar_powers(link, grid)
        assert np.max(np.abs(vectorized - scalar)) <= TOLERANCE_DB

    @pytest.mark.parametrize("subset", _axis_subsets()[1:],
                             ids=lambda s: "+".join(s))
    def test_baseline_parity(self, subset):
        for scenario in (TransmissiveScenario(absorber=False),
                         ReflectiveScenario(absorber=False)):
            link = scenario.baseline_link()
            grid = ProbeGrid.product(
                **{axis: AXIS_VALUES[axis] for axis in subset})
            vectorized = link.evaluate(grid)
            scalar = _nested_scalar_powers(link, grid)
            assert np.max(np.abs(vectorized - scalar)) <= TOLERANCE_DB


class TestDegenerateGrids:
    """0-d and 1-d grids reduce to the scalar and single-axis paths."""

    def test_zero_d_grid_equals_scalar_probe(self):
        link = TransmissiveScenario().link()
        grid = ProbeGrid.product()
        power = link.evaluate(grid)
        assert power.shape == ()
        assert float(power) == pytest.approx(link.received_power_dbm(),
                                             abs=TOLERANCE_DB)

    def test_scalar_axis_values_pin_without_adding_dimensions(self):
        link = TransmissiveScenario().link()
        grid = ProbeGrid.product(frequency=2.46e9, vx=VX_VALUES, vy=8.0)
        assert grid.shape == (VX_VALUES.size,)
        vectorized = link.evaluate(grid)
        reference = _scalar_link_at(link, {"frequency": 2.46e9})
        for i, vx in enumerate(VX_VALUES):
            assert vectorized[i] == pytest.approx(
                reference.received_power_dbm(float(vx), 8.0),
                abs=TOLERANCE_DB)

    def test_one_d_voltage_grid_matches_aligned(self):
        link = ReflectiveScenario().link()
        grid = ProbeGrid.product(vx=VX_VALUES)
        assert np.allclose(link.evaluate(grid),
                           link.evaluate(ProbeGrid.aligned(vx=VX_VALUES,
                                                           vy=0.0)),
                           atol=0.0, rtol=0.0)

    def test_empty_axis_yields_empty_result(self):
        link = TransmissiveScenario().link()
        grid = ProbeGrid.product(frequency=np.empty(0), vx=VX_VALUES)
        assert link.evaluate(grid).shape == (0, VX_VALUES.size)


class TestThinViews:
    """The historical entry points are views over the grid engine."""

    def test_aligned_mesh_is_the_product_grid(self):
        link = TransmissiveScenario(absorber=False).link()
        vx, vy = np.meshgrid(VX_VALUES, VY_VALUES, indexing="ij")
        via_views = link.evaluate(ProbeGrid.aligned(vx=vx, vy=vy))
        via_grid = link.evaluate(ProbeGrid.product(vx=VX_VALUES,
                                                   vy=VY_VALUES))
        assert np.array_equal(via_views, via_grid)

    def test_scalar_is_a_zero_d_grid(self):
        link = TransmissiveScenario().link()
        assert isinstance(link.received_power_dbm(7.0, 22.0), float)
        assert link.received_power_dbm(7.0, 22.0) == float(
            link.evaluate(ProbeGrid.product(vx=7.0, vy=22.0)))

    def test_evaluate_dispatch(self):
        link = TransmissiveScenario().link()
        assert isinstance(link.evaluate(7.0, 22.0), LinkReport)
        assert isinstance(link.evaluate(ProbeGrid.product(vx=7.0)),
                          np.ndarray)

    def test_report_scalar_matches_engine(self):
        link = TransmissiveScenario(absorber=False).link()
        report = link.evaluate(7.0, 22.0)
        assert report.received_power_dbm == pytest.approx(
            link.received_power_dbm(7.0, 22.0), abs=TOLERANCE_DB)


class TestProbeGridValidation:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown grid axis"):
            ProbeGrid.product(bandwidth=np.array([1.0]))

    def test_axis_names_cover_voltages_and_sweep_axes(self):
        assert GRID_AXES == VOLTAGE_AXES + SWEEP_AXES

    def test_duplicate_axes_rejected(self):
        axis = GridAxis(name="vx", values=VX_VALUES, shaped=VX_VALUES)
        with pytest.raises(ValueError, match="duplicate grid axes"):
            ProbeGrid(axes=(axis, axis))

    def test_aligned_rejects_non_broadcastable_shapes(self):
        with pytest.raises(ValueError):
            ProbeGrid.aligned(vx=np.zeros((3,)), vy=np.zeros((4,)))

    def test_direct_construction_rejects_non_broadcastable_axes(self):
        vx = GridAxis(name="vx", values=np.zeros(3), shaped=np.zeros(3))
        vy = GridAxis(name="vy", values=np.zeros(4), shaped=np.zeros(4))
        with pytest.raises(ValueError):
            ProbeGrid(axes=(vx, vy))

    @pytest.mark.parametrize("grid,shape", [
        (ProbeGrid.product(frequency=2.45e9, vx=np.arange(3.0),
                           vy=np.arange(4.0)), (3, 4)),
        (ProbeGrid.product(vx=7.0, vy=22.0), ()),
        (ProbeGrid.aligned(tx_power=np.zeros((5, 1)),
                           vx=np.zeros((5, 3)), vy=np.zeros((1, 3))),
         (5, 3)),
        (ProbeGrid.aligned(vx=np.zeros((2, 1, 3)), vy=np.zeros(3)),
         (2, 1, 3)),
    ], ids=["product", "product-0d", "aligned", "aligned-singleton"])
    def test_shape_and_size_are_the_broadcast_of_the_axes(self, grid, shape):
        assert grid.shape == shape
        assert grid.ndim == len(shape)
        assert grid.size == math.prod(shape)
        assert type(grid.size) is int
        for shard in grid.split(2):
            assert shard.shape == np.broadcast_shapes(
                *(axis.shaped.shape for axis in shard.axes))
            assert shard.size == math.prod(shard.shape)
        assert sum(shard.size for shard in grid.split(2)) == grid.size

    def test_product_axis_order_sets_dimension_order(self):
        grid = ProbeGrid.product(frequency=AXIS_VALUES["frequency"],
                                 vx=VX_VALUES)
        assert grid.shape == (AXIS_VALUES["frequency"].size, VX_VALUES.size)
        assert grid.names == ("frequency", "vx")
        assert grid.sweep_names == ("frequency",)

    def test_expand_and_point_values_label_every_cell(self):
        grid = ProbeGrid.product(tx_power=np.array([-10.0, 0.0]),
                                 vx=VX_VALUES)
        expanded = grid.expand("tx_power")
        assert expanded.shape == grid.shape
        assert np.array_equal(expanded[0], np.full(VX_VALUES.size, -10.0))
        flattened = grid.point_values()
        assert set(flattened) == {"tx_power", "vx"}
        assert all(values.shape == (grid.size,)
                   for values in flattened.values())

    def test_missing_axis_lookup_raises_key_error(self):
        grid = ProbeGrid.product(vx=VX_VALUES)
        with pytest.raises(KeyError):
            grid.values("frequency")
        assert "vx" in grid and "frequency" not in grid

    def test_grids_compare_and_hash_by_identity(self):
        grid = ProbeGrid.product(vx=VX_VALUES)
        twin = ProbeGrid.product(vx=VX_VALUES)
        assert grid == grid and grid != twin
        assert hash(grid) != hash(twin) or grid is twin
        assert len({grid, twin}) == 2

    def test_engine_rejects_non_positive_frequency(self):
        link = TransmissiveScenario().link()
        with pytest.raises(ValueError):
            link.evaluate(ProbeGrid.product(frequency=np.array([2.4e9, -1.0])))


class TestGridController:
    """Grid-native Algorithm 1 vs per-point scalar searches."""

    @pytest.fixture(scope="class")
    def controller(self):
        return CentralizedController(
            VoltageSweepConfig(iterations=2, switches_per_axis=5))

    def test_two_axis_coarse_to_fine_matches_scalar(self, controller):
        link = TransmissiveScenario(absorber=False).link()
        grid = ProbeGrid.product(frequency=AXIS_VALUES["frequency"],
                                 tx_power=AXIS_VALUES["tx_power"])
        result = controller.optimize_grid(LinkBackend(link), grid)
        assert result.best_power_dbm.shape == grid.shape
        assert result.point_count == grid.size
        for i, frequency in enumerate(AXIS_VALUES["frequency"]):
            for j, tx_power in enumerate(AXIS_VALUES["tx_power"]):
                point_link = _scalar_link_at(
                    link, {"frequency": frequency, "tx_power": tx_power})
                scalar = controller.coarse_to_fine_sweep(
                    LinkBackend(point_link))
                assert result.best_vx[i, j] == pytest.approx(scalar.best_vx)
                assert result.best_vy[i, j] == pytest.approx(scalar.best_vy)
                assert result.best_power_dbm[i, j] == pytest.approx(
                    scalar.best_power_dbm, abs=TOLERANCE_DB)

    def test_two_axis_full_sweep_matches_scalar(self, controller):
        link = ReflectiveScenario().link()
        grid = ProbeGrid.product(frequency=AXIS_VALUES["frequency"][:2],
                                 distance=AXIS_VALUES["distance"][:2])
        result = controller.optimize_grid(LinkBackend(link), grid,
                                          exhaustive=True, step_v=10.0)
        assert result.strategy == "full"
        for i, frequency in enumerate(grid.values("frequency")):
            for j, distance in enumerate(grid.values("distance")):
                point_link = _scalar_link_at(
                    link, {"frequency": frequency, "distance": distance})
                scalar = controller.full_sweep(LinkBackend(point_link),
                                               step_v=10.0)
                assert result.best_vx[i, j] == scalar.best_vx
                assert result.best_vy[i, j] == scalar.best_vy
                assert result.best_power_dbm[i, j] == pytest.approx(
                    scalar.best_power_dbm, abs=TOLERANCE_DB)

    def test_zero_d_grid_matches_scalar_optimize(self, controller):
        link = TransmissiveScenario().link()
        backend = LinkBackend(link)
        grid_result = controller.optimize_grid(backend, ProbeGrid.product())
        scalar = controller.optimize(backend)
        assert grid_result.best_power_dbm.shape == ()
        assert float(grid_result.best_vx) == scalar.best_vx
        assert float(grid_result.best_vy) == scalar.best_vy
        assert float(grid_result.best_power_dbm) == pytest.approx(
            scalar.best_power_dbm, abs=TOLERANCE_DB)

    def test_search_grid_must_not_carry_voltage_axes(self, controller):
        link = TransmissiveScenario().link()
        with pytest.raises(ValueError, match="controller sweeps the bias"):
            controller.optimize_grid(LinkBackend(link),
                                     ProbeGrid.product(vx=VX_VALUES))

    def test_non_backend_rejected(self, controller):
        """A link is not a backend: it has no ``measure_grid``."""
        link = TransmissiveScenario().link()
        for grid in (ProbeGrid.product(),
                     ProbeGrid.product(frequency=AXIS_VALUES["frequency"]),
                     ProbeGrid.product(frequency=AXIS_VALUES["frequency"],
                                       tx_power=AXIS_VALUES["tx_power"])):
            with pytest.raises(TypeError, match="measure_grid"):
                controller.optimize_grid(link, grid)

    def test_nan_probes_never_selected(self, controller):
        class NaNFirstBackend:
            def measure_grid(self, grid):
                powers = np.zeros(grid.shape)
                powers[..., 1] = np.nan
                return powers

        grid = ProbeGrid.product(tx_power=np.array([0.0, 10.0]))
        result = controller.coarse_to_fine_sweep_grid(NaNFirstBackend(), grid)
        assert np.all(result.best_power_dbm == 0.0)

    def test_all_nan_reports_minus_infinity(self, controller):
        class NaNBackend:
            def measure_grid(self, grid):
                return np.full(grid.shape, np.nan)

        result = controller.coarse_to_fine_sweep_grid(
            NaNBackend(), ProbeGrid.product(tx_power=np.array([0.0])))
        assert result.best_power_dbm[0] == -math.inf


class TestSessionGridPlane:
    def test_measure_grid_accepts_probe_grids(self):
        session = LinkSession(TransmissiveScenario().configuration())
        grid = ProbeGrid.product(frequency=AXIS_VALUES["frequency"],
                                 vx=VX_VALUES, vy=VY_VALUES)
        powers = session.measure_grid(grid)
        assert powers.shape == grid.shape
        assert np.array_equal(powers, session.link.evaluate(grid))
        with pytest.raises(TypeError, match="ProbeGrid"):
            session.measure_grid(15.0)

    def test_optimize_grid_matches_controller(self):
        session = LinkSession(TransmissiveScenario().configuration())
        grid = ProbeGrid.product(frequency=AXIS_VALUES["frequency"])
        result = session.optimize_grid(grid)
        direct = session.controller.optimize_grid(session.backend, grid)
        assert np.array_equal(result.best_power_dbm, direct.best_power_dbm)
        assert np.array_equal(result.best_vx, direct.best_vx)
