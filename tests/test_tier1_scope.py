"""What tier-1 runs, and what it leaves to the ``bench`` job.

Tier-1 (``tests`` + ``perfbench``) pins results, passes, calls and
copies; it never reads a clock, so machine load cannot fail it.  The
wall-clock ratio gates live in ``benchmarks/`` and run on their own
(``python -m pytest benchmarks -q -s``).  Each gate has a work-count
twin here in ``tests/`` that pins what the gate gives credit for.

These checks read the test sources as syntax trees; nothing under
``benchmarks/`` is imported or run.
"""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
TESTS = REPO_ROOT / "tests"
BENCHMARKS = REPO_ROOT / "benchmarks"

#: Every wall-clock gate in ``benchmarks/`` -> its tier-1 twin.
GATE_TWINS = {
    "test_bench_batched_sweep.py::test_bench_batched_sweep":
        "channel/test_engine_pass_counts.py::test_heatmap_is_one_pass",
    "test_bench_faults.py::test_bench_disabled_injection_overhead":
        "faults/test_faulty_backend.py::TestDisabledInjectionTwin",
    "test_bench_fleet.py::test_bench_fleet_stacking":
        "network/test_schedule_one_pass.py::TestFleetProbeWorkCounts",
    "test_bench_grid_engine.py::test_bench_grid_engine":
        "channel/test_engine_pass_counts.py::TestJointGrid",
    "test_bench_lint.py::test_bench_lint_full_repo":
        "lint/test_self_clean.py::TestSelfClean"
        "::test_full_repo_pass_parses_each_file_once",
    "test_bench_multi_axis_sweep.py::test_bench_multi_axis_sweep":
        "channel/test_engine_pass_counts.py::TestMultiAxisSweep",
    "test_bench_parallel.py::test_bench_parallel_run_all":
        "experiments/test_parallel.py::TestCrossProcessDeterminism",
    "test_bench_parallel.py::test_bench_warm_store_run_all":
        "experiments/test_store.py::TestWarmStoreRuns",
    "test_bench_world.py::test_bench_batched_world_timeline":
        "world/test_dynamics.py::TestStreamedCube"
        "::test_many_slices_equal_one_slice",
}

#: The ``time`` functions that read a clock (``time.sleep`` does not).
CLOCKS = frozenset({
    "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns",
    "process_time", "process_time_ns", "time", "time_ns",
})


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _resolve(tree, dotted):
    """The class / function node that ``A::b`` names, or ``None``."""
    node = tree
    for name in dotted:
        node = next((child for child in node.body
                     if isinstance(child, (ast.ClassDef, ast.FunctionDef))
                     and child.name == name), None)
        if node is None:
            return None
    return node


def _clock_reads(tree):
    """Line numbers of ``time.<clock>`` reads and ``from time import
    <clock>`` imports in ``tree``."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in CLOCKS
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "time"
                and any(alias.name in CLOCKS for alias in node.names)):
            lines.append(node.lineno)
    return lines


def test_tier1_tests_read_no_clock():
    # ``fixtures`` directories hold lint inputs, which are never run.
    offenders = {
        str(path.relative_to(REPO_ROOT)): lines
        for path in sorted(TESTS.rglob("*.py"))
        if "fixtures" not in path.relative_to(TESTS).parts
        and (lines := _clock_reads(_tree(path)))}
    assert offenders == {}


def test_benchmarks_hold_only_the_clock_gates():
    tests = {
        f"{path.name}::{node.name}"
        for path in sorted(BENCHMARKS.glob("test_*.py"))
        for node in _tree(path).body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("test_")}
    assert tests == set(GATE_TWINS)


@pytest.mark.parametrize("gate", sorted(GATE_TWINS))
def test_gate_times_itself_and_has_a_tier1_twin(gate):
    module, name = gate.split("::")
    tree = _tree(BENCHMARKS / module)
    # A gate reads the clock itself or through ``bench_utils.timed``.
    assert _clock_reads(tree) or any(
        isinstance(node, ast.ImportFrom) and node.module == "bench_utils"
        and any(alias.name == "timed" for alias in node.names)
        for node in tree.body), gate
    assert _resolve(tree, [name]) is not None, gate

    twin_path, *twin_names = GATE_TWINS[gate].split("::")
    twin = TESTS / twin_path
    assert twin.is_file(), GATE_TWINS[gate]
    assert _resolve(_tree(twin), twin_names) is not None, GATE_TWINS[gate]
