"""The grid controller hands the shared bias lattice over once.

Every point of a grid search probes the same bias lattice (the
exhaustive scan) or the same full-range first window (Algorithm 1), and
the metasurface's Jones matrices depend only on (frequency, Vx, Vy).
These suites pin that the engine therefore evaluates the surface once
per distinct bias point — not once per (point, bias) cell — while every
result, every fallback backend's probe stream and every fault/noise
replay stays what it was:

* Jones-count gates: an exhaustive fleet search evaluates exactly ``k²``
  Jones elements and Algorithm 1's first iteration exactly ``T²``, with
  the optima equal to the per-station searches;
* the noisy receiver's ``measure_grid`` receives the shared row and
  answers the full ``(n, k)`` grid, the scalar-instrument adapter is
  called in the scalar sweep's probe order, and actuator faults still
  draw one fault per probed cell;
* exhaustive and Algorithm-1 grid sweeps through a noisy receiver and
  through stuck + quantize actuator faults replay to pinned digests.
"""

import zlib

import numpy as np
import pytest

from repro.api import FleetSession, FleetSpec
from repro.api.backend import CallableBackend, LinkBackend, ReceiverSweepBackend
from repro.channel.grid import ProbeGrid
from repro.core.controller import CentralizedController, VoltageSweepConfig
from repro.experiments.scenarios import ReflectiveScenario, TransmissiveScenario
from repro.faults import FaultSchedule, FaultSpec
from repro.metasurface.surface import Metasurface
from repro.radio.transceiver import SimulatedReceiver

TOLERANCE_DB = 1e-9

SWEEP = VoltageSweepConfig(iterations=3, switches_per_axis=5)

#: Exhaustive lattice step: 7 levels per axis, 49 bias pairs.
STEP_V = 5.0
LATTICE = 49


@pytest.fixture()
def jones_calls(monkeypatch):
    """Element count of every ``Metasurface.jones_matrix_batch`` call."""
    calls = []
    original = Metasurface.jones_matrix_batch

    def spy(self, frequency_hz, vx, vy):
        result = original(self, frequency_hz, vx, vy)
        calls.append(int(np.prod(result.shape[:-2], dtype=np.int64)))
        return result

    monkeypatch.setattr(Metasurface, "jones_matrix_batch", spy)
    return calls


@pytest.fixture(scope="module")
def fleet():
    return FleetSession(FleetSpec.office(station_count=6, seed=2021),
                        sweep_config=SWEEP)


class TestJonesCount:
    def test_exhaustive_fleet_search_evaluates_the_lattice_once(
            self, fleet, jones_calls):
        result = fleet.optimize_grid(exhaustive=True, step_v=STEP_V)
        assert jones_calls == [LATTICE]
        assert result.probe_count_per_point == LATTICE
        # Equal to the per-station stacked search, bias pair included.
        vx, vy, power = fleet.deployment.best_bias_per_station(
            step_v=STEP_V, names=fleet.station_names)
        np.testing.assert_allclose(result.best_power_dbm, power,
                                   rtol=0.0, atol=TOLERANCE_DB)
        np.testing.assert_array_equal(result.best_vx, vx)
        np.testing.assert_array_equal(result.best_vy, vy)

    def test_algorithm_one_first_iteration_evaluates_one_window(
            self, fleet, jones_calls):
        result = fleet.optimize_grid()
        switches = SWEEP.switches_per_axis
        stations = fleet.station_count
        # The first window is shared; the shrunk windows are per station.
        assert jones_calls == ([switches ** 2] +
                               [stations * switches ** 2]
                               * (SWEEP.iterations - 1))
        for index, name in enumerate(fleet.station_names):
            single = fleet.session_for(name).optimize()
            assert float(result.best_vx[index]) == single.best_vx
            assert float(result.best_vy[index]) == single.best_vy
            assert float(result.best_power_dbm[index]) == pytest.approx(
                single.best_power_dbm, abs=TOLERANCE_DB)

    def test_reflective_axis_grid_evaluates_the_lattice_once(
            self, jones_calls):
        link = ReflectiveScenario().link()
        controller = CentralizedController(SWEEP)
        powers = np.array([-10.0, 0.0, 10.0, 20.0])
        grid = ProbeGrid.product(tx_power=powers)
        result = controller.full_sweep_grid(LinkBackend(link), grid,
                                            step_v=STEP_V)
        assert jones_calls == [LATTICE]
        single = controller.full_sweep(LinkBackend(link), step_v=STEP_V)
        # tx_power shifts every probe by the same dB, so the chosen pair
        # is the single-link optimum at every point.
        np.testing.assert_array_equal(result.best_vx, single.best_vx)
        np.testing.assert_array_equal(result.best_vy, single.best_vy)


class _Recording:
    """Forwards ``measure_grid`` and records the voltage shapes."""

    def __init__(self, backend):
        self.shapes = []
        self.results = []
        self._backend = backend

    def measure_grid(self, grid):
        self.shapes.append((grid.shaped("vx").shape, grid.shaped("vy").shape))
        result = self._backend.measure_grid(grid)
        self.results.append(np.shape(result))
        return result


class TestFallbackBackends:
    def test_receiver_backend_answers_full_grids(self):
        link = TransmissiveScenario().link()
        receiver = SimulatedReceiver(link, seed=5)
        backend = _Recording(ReceiverSweepBackend(receiver, duration_s=2e-4))
        controller = CentralizedController(SWEEP)
        grid = ProbeGrid.product(tx_power=np.array([-5.0, 0.0, 5.0]))
        controller.full_sweep_grid(backend, grid, step_v=STEP_V)
        controller.coarse_to_fine_sweep_grid(backend, grid)
        window = SWEEP.switches_per_axis ** 2
        assert backend.shapes == (
            [((1, LATTICE), (1, LATTICE)), ((1, window), (1, window))] +
            [((3, window), (3, window))] * (SWEEP.iterations - 1))
        assert backend.results == (
            [(3, LATTICE)] + [(3, window)] * SWEEP.iterations)

    def test_callable_backend_keeps_the_scalar_probe_order(self):
        link = TransmissiveScenario().link()
        probes = []

        def measure(vx, vy):
            probes.append((vx, vy))
            return link.received_power_dbm(vx, vy)

        callable_backend = CallableBackend(measure)
        backend = _Recording(callable_backend)
        controller = CentralizedController(SWEEP)
        result = controller.full_sweep_grid(backend, ProbeGrid.product(),
                                            step_v=STEP_V)
        assert backend.shapes == [((1, LATTICE), (1, LATTICE))]
        levels = np.arange(0.0, 30.0 + 0.5 * STEP_V, STEP_V)
        assert probes == [(float(a), float(b))
                          for a in levels for b in levels]
        scalar = controller.full_sweep(LinkBackend(link), step_v=STEP_V)
        assert float(result.best_power_dbm) == pytest.approx(
            scalar.best_power_dbm, abs=TOLERANCE_DB)
        assert (float(result.best_vx), float(result.best_vy)) == (
            scalar.best_vx, scalar.best_vy)

    def test_actuator_faults_cover_every_probed_cell(self, monkeypatch):
        shapes = []
        original = FaultSchedule.fault_mask

        def spy(self, name, shape, rate):
            shapes.append((name, tuple(shape)))
            return original(self, name, shape, rate)

        monkeypatch.setattr(FaultSchedule, "fault_mask", spy)
        spec = FaultSpec(stuck_rate=0.05, quantize_step_v=0.5)
        fleet = FleetSession(FleetSpec.office(station_count=6, seed=2021),
                             sweep_config=SWEEP,
                             fault_schedule=FaultSchedule(spec, seed=11))
        fleet.optimize_grid(exhaustive=True, step_v=STEP_V)
        fleet.optimize_grid()
        window = SWEEP.switches_per_axis ** 2
        assert shapes == ([("actuator.stuck", (6, LATTICE))] +
                          [("actuator.stuck", (6, window))]
                          * SWEEP.iterations)


def _result_digest(results) -> int:
    """CRC32 of chosen biases and powers (powers rounded to 1e-6 dB, so
    the pin survives round-off-level engine changes)."""
    text = ";".join(
        f"{vx:.6f}|{vy:.6f}|{power:.6f}"
        for result in results
        for vx, vy, power in zip(result.best_vx.ravel(),
                                 result.best_vy.ravel(),
                                 result.best_power_dbm.ravel()))
    return zlib.crc32(text.encode("utf-8"))


class TestReplayDigests:
    """Digests recorded before the lattice was shared; they must hold."""

    def test_noisy_receiver_grid_sweeps_replay(self):
        def run():
            link = TransmissiveScenario().link()
            backend = ReceiverSweepBackend(SimulatedReceiver(link, seed=5),
                                           duration_s=2e-4)
            controller = CentralizedController(SWEEP)
            grid = ProbeGrid.product(
                tx_power=np.array([-27.0, -17.0, -7.0, 3.0]))
            return [controller.full_sweep_grid(backend, grid, step_v=STEP_V),
                    controller.coarse_to_fine_sweep_grid(backend, grid)]

        first = _result_digest(run())
        assert first == _result_digest(run())
        assert first == 3644077793

    def test_actuator_fault_grid_sweeps_replay(self):
        def run():
            spec = FaultSpec(stuck_rate=0.05, stuck_voltage_v=0.0,
                             quantize_step_v=2.0)
            fleet = FleetSession(FleetSpec.office(station_count=6, seed=2021),
                                 sweep_config=SWEEP,
                                 fault_schedule=FaultSchedule(spec, seed=11))
            results = [fleet.optimize_grid(exhaustive=True, step_v=STEP_V),
                       fleet.optimize_grid()]
            return _result_digest(results), fleet.fault_schedule.trace.digest()

        first = run()
        assert first == run()
        assert first == (508984826, 212048375)
