"""LinkEnsemble suite: station-stacked evaluation vs per-station links.

Pins the module's core claim — row ``i`` of every stacked result equals
probing the fresh scalar link of :meth:`LinkEnsemble.link_for` — to
<= 1e-9 dB across deployment modes, plus the parameter bookkeeping and
validation behaviour.
"""

import numpy as np
import pytest

from repro.channel.ensemble import STATION_AXES, LinkEnsemble
from repro.channel.grid import ProbeGrid
from repro.experiments.scenarios import ReflectiveScenario, TransmissiveScenario

TOLERANCE_DB = 1e-9

DISTANCES_M = [0.30, 0.42, 0.54, 0.66]
ORIENTATIONS_DEG = [0.0, 35.0, 90.0, 140.0]
TX_POWERS_DBM = [-10.0, 0.0, 5.0, 13.0]

LEVELS = np.arange(0.0, 30.1, 7.5)
VX_GRID, VY_GRID = np.meshgrid(LEVELS, LEVELS, indexing="ij")


def build_ensemble(scenario=None, **overrides) -> LinkEnsemble:
    scenario = scenario if scenario is not None else TransmissiveScenario(
        absorber=False)
    if not overrides:
        overrides = {
            "distance_m": DISTANCES_M,
            "tx_orientation_deg": ORIENTATIONS_DEG,
            "tx_power_dbm": TX_POWERS_DBM,
        }
    return LinkEnsemble(scenario.configuration(), **overrides)


class TestStackedParity:
    @pytest.mark.parametrize("name,scenario", [
        ("transmissive", TransmissiveScenario(absorber=False)),
        ("reflective", ReflectiveScenario(absorber=False)),
    ])
    def test_rows_match_link_for(self, name, scenario):
        ensemble = build_ensemble(scenario)
        stacked = ensemble.measure_batch(VX_GRID, VY_GRID)
        assert stacked.shape == (4,) + VX_GRID.shape
        for index in range(ensemble.station_count):
            reference = ensemble.link_for(index).evaluate_grid(
                ProbeGrid.aligned(vx=VX_GRID, vy=VY_GRID))
            assert np.max(np.abs(stacked[index] - reference)) <= TOLERANCE_DB

    def test_baseline_rows_match_link_for(self):
        baseline = build_ensemble().baseline()
        assert baseline.configuration.metasurface is None
        stacked = baseline.measure_batch(0.0, 0.0)
        for index in range(baseline.station_count):
            assert stacked[index] == pytest.approx(
                baseline.link_for(index).received_power_dbm(),
                abs=TOLERANCE_DB)

    def test_measure_aligned_uses_per_station_voltages(self):
        ensemble = build_ensemble()
        vx = np.array([0.0, 7.0, 30.0, 15.0])
        vy = np.array([2.0, 22.0, 0.0, 15.0])
        aligned = ensemble.measure_aligned(vx, vy)
        for index in range(ensemble.station_count):
            assert aligned[index] == pytest.approx(
                ensemble.link_for(index).received_power_dbm(
                    float(vx[index]), float(vy[index])), abs=TOLERANCE_DB)

    def test_scalar_measure_indexes_the_stack(self):
        ensemble = build_ensemble()
        assert ensemble.measure(2, 7.0, 22.0) == pytest.approx(
            float(ensemble.measure_batch(7.0, 22.0)[2]), abs=TOLERANCE_DB)
        assert ensemble.measure(-1, 7.0, 22.0) == pytest.approx(
            ensemble.measure(3, 7.0, 22.0))

    def test_frequency_parameter_stacks_too(self):
        ensemble = build_ensemble(frequency_hz=[2.41e9, 2.45e9, 2.48e9])
        stacked = ensemble.measure_batch(7.0, 22.0)
        for index in range(3):
            assert stacked[index] == pytest.approx(
                ensemble.link_for(index).received_power_dbm(7.0, 22.0),
                abs=TOLERANCE_DB)


class TestBookkeeping:
    def test_parameter_returns_overrides_or_base_defaults(self):
        ensemble = build_ensemble()
        assert np.array_equal(ensemble.parameter("distance_m"), DISTANCES_M)
        base_frequency = ensemble.configuration.frequency_hz
        assert np.array_equal(ensemble.parameter("frequency_hz"),
                              np.full(4, base_frequency))
        with pytest.raises(KeyError, match="unknown ensemble parameter"):
            ensemble.parameter("bandwidth_hz")

    def test_station_axes_map_to_grid_axes(self):
        ensemble = build_ensemble()
        grid_axes = ensemble.station_grid(2)
        assert set(grid_axes) == {STATION_AXES[name] for name in (
            "distance_m", "tx_orientation_deg", "tx_power_dbm")}
        assert all(values.shape == (4, 1, 1)
                   for values in grid_axes.values())

    def test_station_index_bounds(self):
        ensemble = build_ensemble()
        with pytest.raises(IndexError):
            ensemble.link_for(4)
        with pytest.raises(IndexError):
            ensemble.measure(-5)

    def test_validation(self):
        scenario = TransmissiveScenario()
        with pytest.raises(ValueError, match="per-station parameter"):
            LinkEnsemble(scenario.configuration())
        with pytest.raises(ValueError, match="disagree"):
            LinkEnsemble(scenario.configuration(), distance_m=[1.0, 2.0],
                         tx_power_dbm=[0.0, 1.0, 2.0])

    def test_zero_station_ensemble_is_legal(self):
        # A fully-quarantined fleet still evaluates: every stacked probe
        # returns an empty leading axis instead of raising.
        ensemble = LinkEnsemble(TransmissiveScenario().configuration(),
                                distance_m=[])
        assert ensemble.station_count == 0
        assert ensemble.measure_batch(VX_GRID, VY_GRID).shape == (
            (0,) + VX_GRID.shape)
        assert ensemble.measure_aligned(np.array([]), np.array([])).shape == (0,)
        with pytest.raises(IndexError):
            ensemble.measure(0)
