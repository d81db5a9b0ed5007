"""FaultyBackend: zero-fault parity across every probe protocol, and
the behaviour of each fault kind when it does fire."""

import numpy as np
import pytest

from repro.api.backend import LinkBackend
from repro.api.session import LinkSession
from repro.channel.grid import ProbeGrid
from repro.channel.link import WirelessLink, probe_evaluations
from repro.experiments.scenarios import TransmissiveScenario
from repro.faults import (
    NO_FAULTS,
    FaultSchedule,
    FaultSpec,
    FaultyBackend,
    HealthMonitor,
    ProbeFaultError,
    RetryingBackend,
    RetryPolicy,
)

LEVELS = np.arange(0.0, 30.0 + 1.0, 6.0)
VX, VY = np.meshgrid(LEVELS, LEVELS, indexing="ij")

#: Parity bar from the issue: zero-fault wrapping must be bit-identical
#: (<= 1e-12 dB) to the bare backend on every protocol.
PARITY_DB = 1e-12


@pytest.fixture(scope="module")
def link():
    return LinkSession(TransmissiveScenario().configuration()).link


@pytest.fixture()
def bare(link):
    return LinkBackend(link)


class TestZeroFaultParity:
    """An inactive spec takes the pure-delegation fast path."""

    @pytest.fixture(params=[NO_FAULTS, FaultSpec(station_mtbf_epochs=5.0)],
                    ids=["no-faults", "churn-only"])
    def wrapped(self, request, bare):
        # Churn-only specs perturb stations, never probes: the probe
        # plane must still be on the fast path.
        return FaultyBackend(bare, FaultSchedule(request.param, seed=0))

    def test_measure(self, bare, wrapped):
        assert abs(wrapped.measure(12.0, 18.0)
                   - bare.measure(12.0, 18.0)) <= PARITY_DB

    def test_measure_batch(self, bare, wrapped):
        delta = np.abs(wrapped.measure_batch(VX, VY)
                       - bare.measure_batch(VX, VY))
        assert float(np.max(delta)) <= PARITY_DB

    def test_measure_grid_link_axis(self, bare, wrapped):
        grid = ProbeGrid.aligned(frequency=np.linspace(2.4e9, 2.5e9, 7),
                                 vx=6.0, vy=9.0)
        delta = np.abs(wrapped.measure_grid(grid) - bare.measure_grid(grid))
        assert float(np.max(delta)) <= PARITY_DB

    def test_measure_grid(self, bare, wrapped):
        grid = ProbeGrid.product(vx=LEVELS, vy=LEVELS)
        delta = np.abs(wrapped.measure_grid(grid) - bare.measure_grid(grid))
        assert float(np.max(delta)) <= PARITY_DB

    def test_fast_path_consumes_no_streams(self, bare, wrapped):
        wrapped.measure_batch(VX, VY)
        assert wrapped.schedule.trace.events == ()
        # The stream dictionary itself stays untouched (no draws at all).
        assert wrapped.schedule._streams == {}


class TestDisabledInjectionTwin:
    """The work-count twin of the disabled-injection overhead bench.

    ``benchmarks/test_bench_faults.py`` times the full resilience stack
    with injection disabled against the bare backend on a 61² bias
    grid; here the same stack and probes are pinned by counts instead
    of wall clock: no extra engine pass, no copy of the engine's result
    array, and no draw from any fault stream.
    """

    LEVELS = np.arange(0.0, 30.0 + 0.25, 0.5)

    @pytest.fixture()
    def engine_results(self, monkeypatch):
        """Every array the budget engine returns, in call order."""
        results = []
        budget = WirelessLink._budget_power_dbm

        def spy(self, vx, vy, params):
            results.append(budget(self, vx, vy, params))
            return results[-1]

        monkeypatch.setattr(WirelessLink, "_budget_power_dbm", spy)
        return results

    @pytest.mark.parametrize("protocol", ["measure_batch", "measure_grid"])
    def test_no_extra_pass_copy_or_draw(self, link, engine_results,
                                        protocol):
        schedule = FaultSchedule(seed=0)
        wrapped = RetryingBackend(FaultyBackend(LinkBackend(link), schedule),
                                  RetryPolicy(), schedule=schedule)
        bare = LinkBackend(link)
        jitter = schedule.stream("retry.jitter").bit_generator.state
        if protocol == "measure_batch":
            args = np.meshgrid(self.LEVELS, self.LEVELS, indexing="ij")
        else:
            args = (ProbeGrid.product(vx=self.LEVELS, vy=self.LEVELS),)

        before = probe_evaluations()
        expected = getattr(bare, protocol)(*args)
        middle = probe_evaluations()
        actual = getattr(wrapped, protocol)(*args)
        assert probe_evaluations() - middle == middle - before == 1
        np.testing.assert_array_equal(actual, expected)
        # The wrapped stack hands back the engine's own array.
        assert actual is engine_results[-1]
        assert schedule.trace.events == ()
        assert list(schedule._streams) == ["retry.jitter"]
        assert schedule.stream("retry.jitter").bit_generator.state == jitter


class TestDataPlaneFaults:
    def test_dropouts_are_nans_at_the_masked_cells(self, bare):
        spec = FaultSpec(probe_dropout_rate=0.25)
        schedule = FaultSchedule(spec, seed=3)
        powers = FaultyBackend(bare, schedule).measure_batch(VX, VY)
        mask = schedule.replay().fault_mask("probe.dropout", VX.shape,
                                            spec.probe_dropout_rate)
        assert np.isnan(powers[mask]).all()
        np.testing.assert_allclose(powers[~mask],
                                   bare.measure_batch(VX, VY)[~mask])

    def test_noise_bursts_offset_by_exactly_the_burst_magnitude(self, bare):
        spec = FaultSpec(noise_burst_rate=0.3, noise_burst_db=6.0)
        schedule = FaultSchedule(spec, seed=5)
        powers = FaultyBackend(bare, schedule).measure_batch(VX, VY)
        clean = bare.measure_batch(VX, VY)
        offsets = np.abs(powers - clean)
        hit = offsets > 0
        np.testing.assert_allclose(offsets[hit], spec.noise_burst_db)
        assert hit.any()

    def test_scalar_measure_goes_through_the_fault_plane(self, bare):
        spec = FaultSpec(probe_dropout_rate=1.0)
        power = FaultyBackend(bare, FaultSchedule(spec, seed=0)).measure(
            6.0, 6.0)
        assert isinstance(power, float) and np.isnan(power)


class TestActuatorFaults:
    def test_stuck_actuators_probe_the_stuck_voltage(self, bare):
        spec = FaultSpec(stuck_rate=1.0, stuck_voltage_v=0.0)
        powers = FaultyBackend(bare, FaultSchedule(spec, seed=0)) \
            .measure_batch(VX, VY)
        stuck = bare.measure(0.0, 0.0)
        np.testing.assert_allclose(powers, np.full(VX.shape, stuck))

    def test_quantization_snaps_commanded_voltages(self, bare):
        spec = FaultSpec(quantize_step_v=10.0)
        wrapped = FaultyBackend(bare, FaultSchedule(spec, seed=0))
        assert wrapped.measure(14.0, 14.0) == pytest.approx(
            bare.measure(10.0, 10.0))
        assert wrapped.measure(16.0, 16.0) == pytest.approx(
            bare.measure(20.0, 20.0))

    def test_brownouts_clip_voltages_from_above(self, bare):
        spec = FaultSpec(brownout_rate=1.0, brownout_clip_v=18.0)
        wrapped = FaultyBackend(bare, FaultSchedule(spec, seed=0))
        assert wrapped.measure(25.0, 30.0) == pytest.approx(
            bare.measure(18.0, 18.0))
        # Voltages already under the clip are untouched.
        assert wrapped.measure(6.0, 9.0) == pytest.approx(
            bare.measure(6.0, 9.0))

    def test_grid_probe_rebuilds_voltage_axes(self, bare):
        grid = ProbeGrid.product(vx=LEVELS, vy=LEVELS)
        spec = FaultSpec(stuck_rate=1.0, stuck_voltage_v=3.0)
        powers = FaultyBackend(bare, FaultSchedule(spec, seed=0)) \
            .measure_grid(grid)
        np.testing.assert_allclose(
            powers, np.full(grid.shape, bare.measure(3.0, 3.0)))


class TestCallFaults:
    def test_probe_errors_raise_retryable(self, bare):
        spec = FaultSpec(probe_error_rate=1.0)
        wrapped = FaultyBackend(bare, FaultSchedule(spec, seed=0))
        with pytest.raises(ProbeFaultError):
            wrapped.measure_batch(VX, VY)


class TestAccounting:
    def test_monitor_tallies_probes_and_faults(self, bare):
        spec = FaultSpec(probe_dropout_rate=1.0)
        monitor = HealthMonitor()
        wrapped = FaultyBackend(bare, FaultSchedule(spec, seed=0),
                                monitor=monitor)
        wrapped.measure_batch(VX, VY)
        report = monitor.report()
        assert report.probes == 1
        assert report.faults_seen["probe.dropout"] == VX.size
        assert report.degraded

    def test_replay_reproduces_powers_and_trace(self, bare):
        spec = FaultSpec(probe_dropout_rate=0.2, noise_burst_rate=0.2,
                         stuck_rate=0.1)
        schedule = FaultSchedule(spec, seed=9)
        first = FaultyBackend(bare, schedule).measure_batch(VX, VY)
        replayed = schedule.replay()
        second = FaultyBackend(bare, replayed).measure_batch(VX, VY)
        np.testing.assert_array_equal(first, second)
        assert schedule.trace.digest() == replayed.trace.digest()
