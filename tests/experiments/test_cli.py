"""Tests for the ``python -m repro.experiments`` CLI."""

import json

import pytest

from repro.experiments.cli import coverage_report, format_coverage, main
from repro.experiments.registry import REGISTRY
from repro.experiments.runner import ExperimentResult


class TestList:
    def test_lists_every_registered_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY.names():
            assert name in out

    def test_tag_filter(self, capsys):
        assert main(["list", "--tag", "sensing"]) == 0
        out = capsys.readouterr().out
        assert "fig23" in out
        assert "fig16" not in out


class TestDescribe:
    def test_describe_shows_schema(self, capsys):
        assert main(["describe", "fig15"]) == 0
        out = capsys.readouterr().out
        assert "distance_cm (float_seq)" in out
        assert "voltage_step_v (float)" in out

    def test_unknown_name_is_an_error(self, capsys):
        assert main(["describe", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestRun:
    def test_run_with_override_and_json_round_trip(self, capsys, tmp_path):
        """The acceptance path: run fig15 --set distance_cm=30 --json."""
        out_path = tmp_path / "fig15.json"
        assert main(["run", "fig15", "--set", "distance_cm=30",
                     "--set", "voltage_step_v=10", "--json",
                     str(out_path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 15" in out
        assert "check passed" in out
        restored = ExperimentResult.from_json(out_path.read_text())
        assert restored.name == "fig15"
        assert restored.params["distance_cm"] == (30.0,)
        assert len(restored.payload.heatmaps) == 1

    def test_unknown_parameter_is_an_error(self, capsys):
        assert main(["run", "fig15", "--set", "bogus=1"]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_ill_typed_parameter_is_an_error(self, capsys):
        assert main(["run", "fig02", "--set", "sample_count=lots"]) == 2
        assert "expects an int" in capsys.readouterr().err

    def test_malformed_assignment_is_an_error(self, capsys):
        assert main(["run", "fig02", "--set", "sample_count"]) == 2
        assert "name=value" in capsys.readouterr().err

    def test_quiet_smoke_run(self, capsys):
        assert main(["run", "table1", "--smoke", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_failing_check_is_a_clean_error(self, capsys):
        from repro.experiments.registry import ExperimentRegistry, experiment

        registry = ExperimentRegistry()

        def failing_check(payload, params):
            raise AssertionError("rotation out of range")

        @experiment("doomed", title="Doomed", tags=("figure",),
                    check=failing_check, registry=registry)
        def _doomed():
            return {"value": 1.0}

        assert main(["run", "doomed", "--quiet", "--check"],
                    registry=registry) == 1
        err = capsys.readouterr().err
        assert "check FAILED: doomed" in err
        assert "rotation out of range" in err


class TestRunAll:
    def test_run_all_smoke_by_tag_archives_results(self, capsys, tmp_path):
        assert main(["run-all", "--tag", "design", "--smoke", "--check",
                     "--json-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY.names("design"):
            assert name in out
            restored = ExperimentResult.from_json(
                (tmp_path / f"{name}.json").read_text())
            assert restored.name == name

    def test_unknown_tag_fails(self, capsys):
        assert main(["run-all", "--tag", "nonexistent"]) == 1
        assert "no experiments" in capsys.readouterr().out

    def test_progress_line_reports_claims_and_eta(self, capsys):
        assert main(["run-all", "--tag", "design", "--smoke"]) == 0
        out = capsys.readouterr().out
        total = len(REGISTRY.names("design"))
        assert f"[run-all] claimed 1/{total}" in out
        assert f"done {total}/{total}" in out
        assert "eta" in out

    def test_workers_and_store_skip_already_computed(self, capsys,
                                                     tmp_path):
        store = tmp_path / "store"
        argv = ["run-all", "--tag", "design", "--smoke", "--check",
                "--workers", "2", "--store", str(store)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        total = len(REGISTRY.names("design"))
        assert f"{total} computed, 0 cached" in cold
        assert "2 workers" in cold
        assert f"store {store}: {total} entries" in cold

        # Second invocation (fresh process-level Runner): everything is
        # served from the warm store, nothing touches the pool.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert f"0 computed, {total} cached" in warm
        assert f"{total} hits" in warm


class TestCoverage:
    def test_report_covers_every_axis_scenario_module(self):
        report = coverage_report(REGISTRY)
        assert report["uncovered"]["scenarios"] == []
        assert report["uncovered"]["axes"] == []
        assert report["uncovered"]["modules"] == []
        assert report["experiment_count"] == len(REGISTRY)

    def test_cli_writes_json_report(self, capsys, tmp_path):
        out_path = tmp_path / "coverage.json"
        assert main(["coverage", "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario coverage" in out
        assert "full coverage" in out
        report = json.loads(out_path.read_text())
        assert report["scenarios"]["iot_zigbee"] == [
            "iot_families", "world_coexistence"]

    def test_format_coverage_reports_gaps(self):
        report = coverage_report(REGISTRY)
        report["uncovered"]["axes"] = ["frequency"]
        text = format_coverage(report)
        assert "uncovered: axes: frequency" in text


@pytest.mark.parametrize("argv", [["list"], ["coverage"]])
def test_main_returns_zero(argv):
    assert main(argv) == 0
