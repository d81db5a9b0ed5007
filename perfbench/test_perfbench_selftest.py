"""Quick self-tests of the benchmark's own code.

They run every workload at toy size, so they are cheap enough for the
repository's default pytest run; the benchmark itself only runs through
``perfbench/run.py``.
"""

import ast
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import perf_harness
from perf_tracing import (SEAMS, LayerReport, Tracer, layer_metrics,
                          self_times, traced)
from perf_workloads import (FleetSweep, PaperSuite, ServeStorm, WorldRetune,
                            workloads)
from repro.channel.link import WirelessLink
from repro.experiments.registry import REGISTRY

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PER_LAYER = {entry["name"]: entry["unit"] for entry in BENCHMARK["per_layer"]}
END_TO_END = [entry["name"] for entry in BENCHMARK["end_to_end"]]

#: The layers the benchmark's definition names, one metric at least each.
NAMED_LAYERS = (
    "world.trace_planes_s",
    "link.axis_params_s", "link.axis_params_calls", "link.axis_params_elems",
    "link.axis_params_share",
    "link.budget_s", "link.budget_passes", "link.budget_cells",
    "link.budget_ns_per_cell", "link.budget_share",
    "metasurface.jones_s", "metasurface.jones_elems",
    "metasurface.jones_distinct_ratio", "metasurface.jones_share",
    "world.retune_reduce_s",
    "controller.optimize_grid_s", "controller.optimize_grid_passes",
    "fleet.schedule_s", "fleet.schedule_calls",
    "fleet.probe_aligned_s", "serve.self_s", "serve.batches",
    "serve.mean_batch", "serve.ok", "serve.failed", "serve.rejected",
    "loadgen.generate_s",
    "store.put_s", "store.get_s", "store.bytes", "store.hits",
    "store.warm_pass_s", "store.warm_probe_passes",
    "trace.overhead_s",
)

COUNT_UNITS = ("count", "bytes")


def toy_workloads(tmp_path):
    return [
        WorldRetune(epochs=20, stations=4, step_v=10.0, sample_cells=8,
                    argmax_cells=2),
        FleetSweep(stations=6, step_v=5.0, sample_stations=3),
        ServeStorm(stations=6, rate_rps=200.0, duration_s=0.5),
        PaperSuite(tmp_path, names=["table1", "fig12"]),
    ]


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced runs of every toy workload (fresh set-up each)."""
    tmp_path = tmp_path_factory.mktemp("perfbench")
    runs = {}
    for workload in toy_workloads(tmp_path):
        runs[workload.name] = [
            perf_harness.run_traced(workload, 7, 0.0, None, list(PER_LAYER))
            for _ in range(2)]
    return runs


def test_count_metrics_repeat_exactly(traced_runs):
    counts = [name for name, unit in PER_LAYER.items()
              if unit in COUNT_UNITS]
    for name, (first, second) in traced_runs.items():
        assert first[1].correct and second[1].correct, name
        for metric in counts:
            assert first[0][metric] == second[0][metric], (name, metric)


def test_toy_runs_exercise_their_layers(traced_runs):
    metrics = {name: runs[0][0] for name, runs in traced_runs.items()}
    assert metrics["world_retune"]["link.budget_passes"] == 2
    assert metrics["world_retune"]["link.budget_cells"] == (4 * 4 + 1) * 80
    assert metrics["fleet_sweep"]["link.budget_cells"] == 6 * 7 * 7
    assert metrics["fleet_sweep"]["controller.optimize_grid_calls"] == 1
    assert metrics["serve_storm"]["serve.batches"] > 0
    assert metrics["serve_storm"]["loadgen.generate_s"] > 0
    assert metrics["paper_suite"]["experiments.table1_s"] > 0
    assert metrics["paper_suite"]["store.hits"] == 2
    assert metrics["paper_suite"]["store.warm_probe_passes"] == 0


def test_span_self_times_and_nesting(traced_runs):
    for name, runs in traced_runs.items():
        spans = runs[0][3]["pass"]
        assert spans, name
        for span in spans:
            assert span["end"] >= span["start"], span
            if span["parent"] >= 0:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"], (name, span)
                assert span["end"] <= parent["end"], (name, span)


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 9.0, 10.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    # root 0-10, a 1-5 (b 2-4), c 9-10
    assert [round(value, 9) for value in self_times(tracer.spans)] == \
        [5.0, 2.0, 2.0, 1.0]
    report = LayerReport(tracer.spans)
    assert report.busy["a"] == 4.0 and report.self_s["a"] == 2.0


def test_nested_spans_of_one_layer_count_once():
    ticks = iter([0.0, 1.0, 3.0, 4.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("metasurface.jones"):
        with tracer.span("metasurface.jones"):
            pass
    report = LayerReport(tracer.spans)
    assert report.calls["metasurface.jones"] == 1
    assert report.busy["metasurface.jones"] == 4.0


def test_layer_table_covers_named_layers(traced_runs, tmp_path):
    assert len(PER_LAYER) == len(BENCHMARK["per_layer"])
    assert set(NAMED_LAYERS) <= set(PER_LAYER)
    # Every catalogued metric is one the traced run computes.
    empty = LayerReport([])
    computed = set(layer_metrics(empty, empty, 1.0, {}))
    computed |= {"trace.overhead_s", "trace.overhead_share",
                 "experiments.other_s"}
    computed |= {f"experiments.{spec.name}_s" for spec in REGISTRY.all()}
    for runs in traced_runs.values():
        computed |= set(runs[0][1].counts)
    assert set(PER_LAYER) <= computed
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == \
        list(workloads(tmp_path))


def seam_originals():
    return {(id(seam.owner), seam.attribute): vars(seam.owner)[seam.attribute]
            for seam in SEAMS}


def test_traced_block_restores_original_seams():
    before = seam_originals()
    with traced(Tracer()):
        wrapped = seam_originals()
    assert seam_originals() == before
    assert all(wrapped[key] is not before[key] for key in before)
    assert len(before) == len(SEAMS)


class _Spy:
    """A workload wrapper recording what each pass of it saw."""

    def __init__(self, workload):
        self.workload = workload
        self.name = workload.name
        self.seen = []
        self.original = vars(WirelessLink)["_axis_parameters"]

    def __getattr__(self, attribute):
        return getattr(self.workload, attribute)

    def run(self, state):
        self.seen.append(vars(WirelessLink)["_axis_parameters"]
                         is self.original)
        return self.workload.run(state)


def test_untraced_passes_see_original_methods(tmp_path):
    spy = _Spy(FleetSweep(stations=4, step_v=10.0, sample_stations=2))
    metrics, tally, passes = perf_harness.run_untraced(spy, 3, 0.0, None)
    assert tally.correct and passes == perf_harness.MIN_PASSES
    # The memory pass and the timed passes all run the originals.
    assert spy.seen == [True] * (passes + 1)
    assert set(END_TO_END) <= set(metrics)
    assert metrics["peak_mem_mb"] >= 0

    spy.seen.clear()
    perf_harness.run_traced(spy, 3, 0.0, None, list(PER_LAYER))
    # Warm-up, then as many wrapped passes as untraced timed ones.
    assert spy.seen.count(False) == spy.seen.count(True) - 1


def test_speed_probe_scales_by_its_samples_and_restores_the_timer():
    def busy(seconds):
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            pass
        return "done"

    handler = signal.getsignal(signal.SIGALRM)
    probe = perf_harness.SpeedProbe()
    result, scaled, wall = probe.measure(busy, 0.2)
    assert result == "done" and wall >= 0.2
    # One sample before, one after and at least one from inside.
    assert len(probe.samples) >= 3 and 0 < probe.inside_s < wall
    speed = statistics.fmean(perf_harness.PROBE_REFERENCE_S / sample
                             for sample in probe.samples)
    assert scaled == pytest.approx((wall - probe.inside_s) * speed)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("workload, key", [
    (FleetSweep(stations=4, step_v=10.0, sample_stations=2),
     "best_power_dbm"),
    (WorldRetune(epochs=10, stations=4, step_v=10.0, sample_cells=4,
                 argmax_cells=1), "station_with_dbm"),
])
def test_checks_fail_wrong_outputs(workload, key):
    state = workload.setup(5)
    outputs = workload.run(state)
    fingerprint = workload.fingerprint(state, outputs)
    assert workload.verify(state, outputs).failed == 0

    def against(offset):
        state.reference = dict(fingerprint)
        state.reference[key] = [value + offset for value in fingerprint[key]]
        return workload.verify(state, outputs)

    # Round-off passes; a real difference fails the whole pass.
    assert against(1e-12).failed == 0
    check = against(1e-6)
    assert check.failed == check.attempted == 1 and check.problems


def test_benchmark_files_collect_no_long_tests():
    collected = sorted(path.name for path in HERE.glob("*.py")
                       if path.name.startswith("test_")
                       or path.name.endswith("_test.py"))
    assert collected == [Path(__file__).name]
    for path in HERE.glob("perf_*.py"):
        tree = ast.parse(path.read_text())
        names = [node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        assert not [name for name in names
                    if name.startswith(("test", "Test"))], path


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""
