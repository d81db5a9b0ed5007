"""Tests for the serve_capacity / serve_degradation experiments.

The registry-wide runner suite already smoke-runs every experiment
with its check hook; these tests pin the serving-specific contracts —
curve shapes, parity, replay determinism and the ``serve`` CLI entry.
"""

import json

import pytest

from repro.experiments.artifacts import payload_equal
from repro.experiments.cli import main
from repro.experiments.registry import REGISTRY
from repro.experiments.runner import ExperimentResult, run_experiment


@pytest.fixture(scope="module")
def capacity():
    return run_experiment("serve_capacity", smoke=True)


@pytest.fixture(scope="module")
def degradation():
    return run_experiment("serve_degradation", smoke=True)


class TestRegistration:
    @pytest.mark.parametrize("name", ["serve_capacity", "serve_degradation"])
    def test_registered_with_serve_module(self, name):
        spec = REGISTRY.get(name)
        assert "serve" in spec.modules
        assert "fleet" in spec.scenarios
        assert "serving" in spec.tags


class TestServeCapacity:
    def test_curve_arrays_align_with_windows(self, capacity):
        payload = capacity.payload
        count = len(payload.windows_s)
        for field in ("throughput_rps", "avg_latency_s", "p95_latency_s",
                      "p99_latency_s", "failure_rate", "mean_batch_size",
                      "shed_counts"):
            assert len(getattr(payload, field)) == count

    def test_batching_beats_the_unbatched_baseline(self, capacity):
        payload = capacity.payload
        assert payload.windows_s[0] == 0.0
        assert payload.best_throughput_rps > payload.throughput_rps[0]

    def test_zero_fault_parity_is_exact(self, capacity):
        assert capacity.payload.max_parity_error_db <= 1e-9

    def test_wider_windows_coalesce_more(self, capacity):
        batches = capacity.payload.mean_batch_size
        assert batches[0] == pytest.approx(1.0)
        assert batches[-1] > batches[0]

    def test_check_passes(self, capacity):
        capacity.check()

    def test_json_round_trip(self, capacity):
        restored = ExperimentResult.from_json(capacity.to_json())
        assert payload_equal(restored.payload, capacity.payload,
                             tolerance=0.0)


class TestServeDegradation:
    def test_zero_intensity_is_faultless_and_exact(self, degradation):
        payload = degradation.payload
        assert payload.intensities[0] == 0.0
        assert payload.failure_rate[0] == 0.0
        assert payload.total_faults[0] == 0
        assert payload.zero_fault_parity_db <= 1e-9

    def test_faults_grow_with_intensity(self, degradation):
        faults = degradation.payload.total_faults
        assert faults == tuple(sorted(faults))
        assert faults[-1] > 0

    def test_check_passes(self, degradation):
        degradation.check()

    def test_fault_digests_are_pinned(self, degradation):
        # A replay of the same code would agree with any reordering of
        # the faulty fleet's probes; recorded values do not.
        assert degradation.payload.fault_digests == (0, 1988795182,
                                                     3850703140)

    def test_replay_is_bit_identical(self, degradation):
        replay = run_experiment("serve_degradation", smoke=True)
        assert payload_equal(replay.payload, degradation.payload,
                             tolerance=0.0)
        assert replay.payload.fault_digests \
            == degradation.payload.fault_digests


class TestServeCli:
    def test_serve_subcommand_prints_metrics(self, capsys, tmp_path):
        out_path = tmp_path / "serve.json"
        assert main(["serve", "--stations", "4", "--rate", "150",
                     "--duration", "0.3", "--window", "0.02",
                     "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "throughput_rps" in out
        assert "mean_batch_size" in out
        record = json.loads(out_path.read_text())
        assert record["config"]["batch_window_s"] == 0.02
        assert record["metrics"]["request_count"] > 0

    @pytest.mark.parametrize("flag", ["--rate", "--duration", "--window"])
    def test_serve_subcommand_rejects_non_finite_input(self, capsys, flag):
        assert main(["serve", "--stations", "2", flag, "nan"]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_serve_experiments_run_via_cli(self, capsys):
        assert main(["run", "serve_capacity", "--smoke", "--check",
                     "--quiet"]) == 0
        assert "check passed" in capsys.readouterr().out
