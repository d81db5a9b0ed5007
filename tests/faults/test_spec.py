"""Fault model contract: spec validation, named streams, nested draws,
trace digests and exact replay."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.grid import ProbeGrid
from repro.faults import (
    NO_FAULTS,
    FaultSchedule,
    FaultSpec,
    FaultTrace,
    FaultyBackend,
    ProbeFaultError,
    StationChurn,
)
from repro.faults.spec import FAULT_KINDS, FaultEvent

#: A spec under which each catalogued kind fires on its first chance.
CERTAIN_FAULTS = {
    "probe.dropout": FaultSpec(probe_dropout_rate=1.0),
    "probe.noise": FaultSpec(noise_burst_rate=1.0),
    "probe.error": FaultSpec(probe_error_rate=1.0),
    "actuator.stuck": FaultSpec(stuck_rate=1.0),
    "supply.brownout": FaultSpec(brownout_rate=1.0),
    "churn.fail": FaultSpec(station_mtbf_epochs=1.0),
    "churn.recover": FaultSpec(station_mtbf_epochs=1.0,
                               station_mttr_epochs=1.0),
}


class ZeroBackend:
    """A ``measure_grid`` backend reporting 0 dBm everywhere."""

    def measure_grid(self, grid):
        return np.zeros(grid.shape)


class TestFaultSpecValidation:
    @pytest.mark.parametrize("name", [
        "probe_dropout_rate", "noise_burst_rate", "probe_error_rate",
        "stuck_rate", "brownout_rate",
    ])
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_rates_must_be_probabilities(self, name, value):
        with pytest.raises(ValueError, match="must be in"):
            FaultSpec(**{name: value})

    @pytest.mark.parametrize("name", [
        "noise_burst_db", "quantize_step_v", "brownout_clip_v",
    ])
    def test_magnitudes_must_be_non_negative(self, name):
        with pytest.raises(ValueError, match="non-negative"):
            FaultSpec(**{name: -1.0})

    @pytest.mark.parametrize("name", [
        "station_mtbf_epochs", "station_mttr_epochs",
    ])
    def test_churn_time_constants_must_be_at_least_one_epoch(self, name):
        with pytest.raises(ValueError, match=">= 1 epoch"):
            FaultSpec(**{name: 0.5})


class TestFaultSpecIntrospection:
    def test_no_faults_is_inactive(self):
        assert not NO_FAULTS.active
        assert not NO_FAULTS.perturbs_probes
        assert not NO_FAULTS.perturbs_voltages
        assert not NO_FAULTS.churns_stations

    @pytest.mark.parametrize("field,voltages", [
        ("probe_dropout_rate", False),
        ("noise_burst_rate", False),
        ("probe_error_rate", False),
        ("stuck_rate", True),
        ("brownout_rate", True),
    ])
    def test_probe_plane_rates_activate(self, field, voltages):
        spec = FaultSpec(**{field: 0.1})
        assert spec.active
        assert spec.perturbs_probes
        assert spec.perturbs_voltages == voltages

    def test_quantization_counts_as_voltage_perturbation(self):
        spec = FaultSpec(quantize_step_v=2.0)
        assert spec.perturbs_voltages and spec.perturbs_probes

    def test_churn_activates_without_perturbing_probes(self):
        spec = FaultSpec(station_mtbf_epochs=10.0)
        assert spec.active and spec.churns_stations
        assert not spec.perturbs_probes


class TestFaultSpecScaled:
    def test_scales_every_rate_and_keeps_magnitudes(self):
        spec = FaultSpec(probe_dropout_rate=0.1, noise_burst_rate=0.2,
                         noise_burst_db=6.0, stuck_rate=0.05,
                         quantize_step_v=2.0)
        scaled = spec.scaled(2.0)
        assert scaled.probe_dropout_rate == pytest.approx(0.2)
        assert scaled.noise_burst_rate == pytest.approx(0.4)
        assert scaled.stuck_rate == pytest.approx(0.1)
        # Magnitudes are the mix, not the intensity: untouched.
        assert scaled.noise_burst_db == 6.0
        assert scaled.quantize_step_v == 2.0

    def test_clamps_at_one(self):
        assert FaultSpec(probe_dropout_rate=0.6).scaled(5.0) \
            .probe_dropout_rate == 1.0

    def test_zero_factor_deactivates_probe_plane(self):
        spec = FaultSpec(probe_dropout_rate=0.5, brownout_rate=0.5)
        assert not spec.scaled(0.0).perturbs_probes

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            NO_FAULTS.scaled(-1.0)


class TestFaultSchedule:
    def test_streams_are_independent_of_creation_order(self):
        first = FaultSchedule(seed=7)
        a1 = first.stream("probe.dropout").random(4)
        b1 = first.stream("probe.noise").random(4)
        second = FaultSchedule(seed=7)
        b2 = second.stream("probe.noise").random(4)
        a2 = second.stream("probe.dropout").random(4)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    def test_streams_differ_across_names_and_seeds(self):
        schedule = FaultSchedule(seed=7)
        assert not np.array_equal(schedule.stream("a").random(8),
                                  schedule.stream("b").random(8))
        assert not np.array_equal(
            FaultSchedule(seed=7).stream("a").random(8),
            FaultSchedule(seed=8).stream("a").random(8))

    def test_zero_rate_mask_still_consumes_draws(self):
        drawing = FaultSchedule(seed=3)
        drawing.fault_mask("probe.dropout", (16,), 0.0)
        after_zero = drawing.fault_mask("probe.dropout", (16,), 1.0)
        fresh = FaultSchedule(seed=3)
        fresh.stream("probe.dropout").random(16)  # what the zero-rate ate
        reference = fresh.fault_mask("probe.dropout", (16,), 1.0)
        np.testing.assert_array_equal(after_zero, reference)

    @given(low=st.floats(0.0, 1.0), delta=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None)
    def test_nested_draw_contract(self, low, delta, seed):
        """Fault sets at rate r1 are subsets of the sets at r2 >= r1."""
        high = min(1.0, low + delta)
        mask_low = FaultSchedule(seed=seed).fault_mask("s", (64,), low)
        mask_high = FaultSchedule(seed=seed).fault_mask("s", (64,), high)
        assert np.all(mask_high[mask_low])

    def test_mask_records_event_only_when_faults_fire(self):
        schedule = FaultSchedule(seed=0)
        schedule.fault_mask("probe.dropout", (32,), 0.0)
        assert schedule.trace.events == ()
        mask = schedule.fault_mask("probe.dropout", (32,), 1.0)
        (event,) = schedule.trace.events
        assert event == FaultEvent(stream="probe.dropout",
                                   kind="probe.dropout", sequence=2,
                                   draws=32, count=int(mask.sum()))

    def test_fault_fires_is_scalar_and_deterministic(self):
        assert isinstance(
            FaultSchedule(seed=1).fault_fires("probe.error", 1.0), bool)
        draws = [FaultSchedule(seed=5).fault_fires("probe.error", 0.5)
                 for _ in range(3)]
        assert len(set(draws)) == 1

    def test_signs_are_plus_minus_one(self):
        signs = FaultSchedule(seed=2).signs("probe.noise.sign", (64,))
        assert set(np.unique(signs)) <= {-1.0, 1.0}

    def test_record_appends_external_events(self):
        schedule = FaultSchedule(seed=0)
        schedule.record("churn", "churn.fail", count=2, draws=6)
        schedule.record("churn", "churn.recover", count=0)  # no-op
        assert schedule.trace.counts() == {"churn.fail": 2}

    def test_replay_reproduces_trace_digest(self):
        spec = FaultSpec(probe_dropout_rate=0.3, noise_burst_rate=0.2)
        schedule = FaultSchedule(spec, seed=11)
        for _ in range(4):
            schedule.fault_mask("probe.dropout", (8, 8),
                                spec.probe_dropout_rate)
            schedule.fault_mask("probe.noise", (8, 8),
                                spec.noise_burst_rate)
        replayed = schedule.replay()
        assert replayed.spec is spec and replayed.seed == schedule.seed
        for _ in range(4):
            replayed.fault_mask("probe.dropout", (8, 8),
                                spec.probe_dropout_rate)
            replayed.fault_mask("probe.noise", (8, 8),
                                spec.noise_burst_rate)
        assert replayed.trace == schedule.trace
        assert replayed.trace.digest() == schedule.trace.digest()


class TestFaultTrace:
    def test_counts_total_and_digest(self):
        trace = FaultTrace(events=(
            FaultEvent("probe.dropout", "probe.dropout", 1, 16, 3),
            FaultEvent("probe.dropout", "probe.dropout", 2, 16, 1),
            FaultEvent("probe.error", "probe.error", 1, 1, 1),
        ))
        assert trace.counts() == {"probe.dropout": 4, "probe.error": 1}
        assert trace.total == 5
        assert trace.digest() != FaultTrace().digest()

    def test_every_kind_is_in_the_catalogue(self):
        assert len(set(FAULT_KINDS)) == len(FAULT_KINDS)
        for prefix in ("probe.", "actuator.", "supply.", "churn."):
            assert any(kind.startswith(prefix) for kind in FAULT_KINDS)

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_every_catalogued_kind_is_recorded_by_the_fault_plane(
            self, kind):
        # A kind no injector records is a dead catalogue entry.
        schedule = FaultSchedule(CERTAIN_FAULTS[kind], seed=0)
        if kind.startswith("churn."):
            churn = StationChurn(schedule, ("a", "b"))
            churn.advance()
            churn.advance()
        else:
            backend = FaultyBackend(ZeroBackend(), schedule)
            try:
                backend.measure_grid(ProbeGrid.aligned(vx=[3.0, 27.0],
                                                       vy=[27.0, 3.0]))
            except ProbeFaultError:
                assert kind == "probe.error"
        counts = schedule.trace.counts()
        assert counts[kind] > 0
        assert set(counts) <= set(FAULT_KINDS)

    def test_mtbf_defaults_disable_churn(self):
        assert math.isinf(NO_FAULTS.station_mtbf_epochs)
