"""Runner, caching and ExperimentResult round-trip tests.

The acceptance surface of the registry redesign: every registered
experiment runs in smoke mode, its result survives ``to_json`` /
``from_json`` with payload equality, parameter-override validation
rejects unknown/ill-typed keys, and the legacy ``figureN_*`` shims
return payloads equal (≤ 1e-9) to registry runs of the same spec.
"""

import dataclasses

import numpy as np
import pytest

from repro.experiments import figures
from repro.experiments.artifacts import (
    ArtifactError,
    decode,
    encode,
    payload_equal,
)
from repro.experiments.registry import REGISTRY, ParameterError
from repro.experiments.runner import (
    ExperimentResult,
    Runner,
    default_runner,
    run_experiment,
)


@pytest.fixture(scope="module")
def runner():
    return Runner()


@pytest.fixture(scope="module", params=REGISTRY.names())
def smoke_result(request, runner):
    return runner.run(request.param, smoke=True)


class TestEveryExperiment:
    def test_runs_in_smoke_mode(self, smoke_result):
        assert smoke_result.payload is not None

    def test_passes_its_shape_check(self, smoke_result):
        smoke_result.check()

    def test_summary_renders(self, smoke_result):
        text = smoke_result.summary()
        assert isinstance(text, str) and text

    def test_json_round_trip_payload_equality(self, smoke_result):
        restored = ExperimentResult.from_json(smoke_result.to_json())
        assert restored.name == smoke_result.name
        assert payload_equal(restored.params, smoke_result.params)
        assert payload_equal(restored.payload, smoke_result.payload)
        assert restored.equal(smoke_result)


class TestOverrideValidation:
    def test_unknown_key_rejected(self, runner):
        with pytest.raises(ParameterError, match="no parameter"):
            runner.run("fig15", bogus_knob=1)

    def test_ill_typed_value_rejected(self, runner):
        with pytest.raises(ParameterError):
            runner.run("fig02", sample_count="many")
        with pytest.raises(ParameterError):
            runner.run("fig16", exhaustive="kinda")

    def test_scalar_axis_override_widens(self, runner):
        result = runner.run("fig15", distance_cm=30, voltage_step_v=10.0)
        assert result.params["distance_cm"] == (30.0,)
        assert len(result.payload.heatmaps) == 1

    def test_empty_axis_rejected(self, runner):
        with pytest.raises(ParameterError, match="non-empty"):
            runner.run("fig16", distance_cm=())
        with pytest.raises(ParameterError, match="non-empty"):
            runner.run("fig16", distance_cm=[])


class TestCaching:
    def test_identical_runs_hit_the_cache(self):
        runner = Runner()
        first = runner.run("table1")
        second = runner.run("table1")
        assert second.equal(first)
        hits, misses, entries = runner.cache_info
        assert (hits, misses, entries) == (1, 1, 1)

    def test_different_params_miss(self):
        runner = Runner()
        first = runner.run("table1")
        second = runner.run("table1", voltage_v=(2.0, 15.0))
        assert not second.equal(first)
        assert runner.cache_info[1] == 2

    def test_cache_can_be_disabled_and_cleared(self):
        runner = Runner(cache=False)
        runner.run("table1")
        assert runner.cache_info == (0, 0, 0)
        cached = Runner()
        cached.run("table1")
        cached.clear_cache()
        assert cached.cache_info == (0, 0, 0)

    def test_run_many_shares_the_cache(self):
        runner = Runner()
        results = runner.run_many(["table1", "table1"])
        assert results[1].equal(results[0])
        assert runner.cache_info[0] == 1

    def test_mutating_a_returned_payload_cannot_poison_the_cache(self):
        runner = Runner()
        first = runner.run("table1", voltage_v=(2.0, 15.0))
        first.payload.rotation_deg[(99.0, 99.0)] = 123.0
        second = runner.run("table1", voltage_v=(2.0, 15.0))
        assert (99.0, 99.0) not in second.payload.rotation_deg

    def test_run_experiment_results_are_isolated_per_call(self):
        first = run_experiment("table1", voltage_v=(2.0, 15.0)).payload
        first.rotation_deg[(99.0, 99.0)] = 123.0
        second = run_experiment("table1", voltage_v=(2.0, 15.0)).payload
        assert (99.0, 99.0) not in second.rotation_deg

    def test_run_all_by_tag(self):
        runner = Runner()
        results = runner.run_all(tag="design", smoke=True)
        assert {result.name for result in results} == \
            {name for name in REGISTRY.names("design")}


class TestRunExperimentParity:
    """``run_experiment`` payloads equal the default runner's (≤ 1e-9)."""

    def test_fig16_parity(self):
        payload = run_experiment("fig16", distance_cm=(24, 42)).payload
        registry_run = default_runner().run("fig16", distance_cm=(24, 42))
        assert payload_equal(payload, registry_run.payload, tolerance=1e-9)

    def test_table1_parity(self):
        payload = run_experiment("table1", voltage_v=(2.0, 15.0)).payload
        registry_run = default_runner().run("table1", voltage_v=(2.0, 15.0))
        assert payload_equal(payload, registry_run.payload, tolerance=1e-9)

    def test_fig11_parity(self):
        payload = run_experiment("fig11", frequency_count=11,
                                 vy_v=(2, 15)).payload
        registry_run = default_runner().run("fig11", frequency_count=11,
                                            vy_v=(2, 15))
        assert payload_equal(payload, registry_run.payload, tolerance=1e-9)

    def test_fig21_parity(self):
        payload = run_experiment("fig21", distance_cm=(24, 36),
                                 voltage_step_v=10.0).payload
        registry_run = default_runner().run("fig21", distance_cm=(24, 36),
                                            voltage_step_v=10.0)
        assert payload_equal(payload, registry_run.payload, tolerance=1e-9)

    def test_run_experiment_shares_the_default_runner_cache(self):
        hits_before = default_runner().cache_info[0]
        run_experiment("fig16", distance_cm=(24, 42))
        run_experiment("fig16", distance_cm=(24, 42))
        assert default_runner().cache_info[0] > hits_before


class TestArtifacts:
    def test_tuple_keyed_dict_round_trip(self):
        grid = {(0.0, 5.0): -30.5, (5.0, 0.0): float("nan")}
        restored = decode(encode(grid))
        assert set(restored) == set(grid)
        assert restored[(0.0, 5.0)] == -30.5
        assert np.isnan(restored[(5.0, 0.0)])

    def test_ndarray_round_trip_keeps_dtype_and_shape(self):
        array = np.arange(6, dtype=np.float64).reshape(2, 3)
        restored = decode(encode(array))
        assert restored.dtype == array.dtype
        assert restored.shape == array.shape
        assert np.array_equal(restored, array)

    def test_nested_dataclass_round_trip(self):
        payload = figures.HeatmapResult(distance_cm=24.0,
                                        grid_dbm={(0.0, 0.0): -20.0})
        restored = decode(encode(payload))
        assert restored == payload

    def test_decode_refuses_foreign_types(self):
        malicious = {"__kind__": "dataclass", "type": "os:system",
                     "fields": {}}
        with pytest.raises(ArtifactError, match="refusing"):
            decode(malicious)

    def test_unencodable_payload_reports_type(self):
        with pytest.raises(ArtifactError, match="object"):
            encode(object())

    def test_payload_equal_tolerance_and_nan(self):
        assert payload_equal(1.0, 1.0 + 5e-10)
        assert not payload_equal(1.0, 1.0 + 5e-9)
        assert payload_equal(float("nan"), float("nan"))
        assert not payload_equal(float("nan"), 0.0)
        assert payload_equal((1.0, 2.0), (1.0, 2.0))
        assert not payload_equal((1.0,), [1.0])

    def test_payload_equal_dataclass_types_must_match(self):
        @dataclasses.dataclass(frozen=True)
        class Other:
            distance_cm: float
            grid_dbm: dict

        a = figures.HeatmapResult(distance_cm=24.0, grid_dbm={})
        b = Other(distance_cm=24.0, grid_dbm={})
        assert not payload_equal(a, b)


class TestResultEnvelope:
    def test_from_json_validates_params(self, runner):
        result = runner.run("fig15", smoke=True)
        data = result.to_dict()
        data["params"]["distance_cm"] = "not-a-number-list"
        with pytest.raises(ParameterError):
            ExperimentResult.from_dict(data)

    def test_from_json_unknown_experiment(self, runner):
        result = runner.run("fig15", smoke=True)
        data = result.to_dict()
        data["experiment"] = "fig99"
        with pytest.raises(KeyError):
            ExperimentResult.from_dict(data)

    def test_envelope_metadata(self, runner):
        result = runner.run("fig15", smoke=True)
        data = result.to_dict()
        assert data["experiment"] == "fig15"
        assert "figure" in data["tags"]
        assert result.name == "fig15"
