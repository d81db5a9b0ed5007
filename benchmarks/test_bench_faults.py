"""Resilience-layer overhead with injection disabled.

The fault plane promises a pure-delegation fast path: an inactive
``FaultySchedule`` draws from no stream and a ``RetryingBackend`` adds
one guarded call per probe, so wrapping the whole resilience stack
around the measurement backend must cost <5% on amortized batched
probes — and stay bit-identical.
"""

import time

import numpy as np

from repro.api.backend import LinkBackend
from repro.api.session import LinkSession
from repro.channel.grid import ProbeGrid
from repro.experiments.reporting import format_table
from repro.experiments.scenarios import TransmissiveScenario
from repro.faults import (
    FaultSchedule,
    FaultyBackend,
    RetryingBackend,
    RetryPolicy,
)

#: Acceptance bar from the issue: disabled-injection overhead <5%.
MAX_OVERHEAD_FRACTION = 0.05
PARITY_DB = 1e-12

STEP_V = 0.5
LEVELS = np.arange(0.0, 30.0 + 0.5 * STEP_V, STEP_V)
VX_GRID, VY_GRID = np.meshgrid(LEVELS, LEVELS, indexing="ij")
CALLS = 40
REPEATS = 7


def wrap_resilience(backend):
    """The full disabled-injection resilience stack around a backend."""
    schedule = FaultSchedule(seed=0)  # NO_FAULTS: the fast path
    return RetryingBackend(FaultyBackend(backend, schedule),
                           RetryPolicy(), schedule=schedule)


def best_seconds_interleaved(bare_fn, wrapped_fn):
    """Minimum wall-clock of ``REPEATS`` interleaved runs of each path.

    The two workloads alternate within every repetition so slow
    machine-load drift hits both equally, and the minimum is the
    sample least perturbed by scheduler noise — the overhead fraction
    compares the paths' intrinsic costs rather than whichever block a
    busy CI box happened to interrupt.
    """
    bare_samples, wrapped_samples = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        bare_fn()
        bare_samples.append(time.perf_counter() - start)
        start = time.perf_counter()
        wrapped_fn()
        wrapped_samples.append(time.perf_counter() - start)
    return min(bare_samples), min(wrapped_samples)


def overhead_row(label, probes, bare_fn, wrapped_fn, parity_db):
    bare_s, wrapped_s = best_seconds_interleaved(bare_fn, wrapped_fn)
    return {
        "plane": label,
        "probes": probes,
        "bare_ms": bare_s * 1e3,
        "wrapped_ms": wrapped_s * 1e3,
        "overhead_fraction": wrapped_s / bare_s - 1.0,
        "max_error_db": parity_db,
    }


def run_overhead_comparison():
    link = LinkSession(TransmissiveScenario().configuration()).link
    bare = LinkBackend(link)
    wrapped = wrap_resilience(LinkBackend(link))
    grids = (("aligned bias grid", ProbeGrid.aligned(vx=VX_GRID, vy=VY_GRID)),
             ("product probe grid", ProbeGrid.product(vx=LEVELS, vy=LEVELS)))

    # Warm-up both paths (NumPy dispatch, surface response caches).
    for _label, grid in grids:
        bare.measure_grid(grid)
        wrapped.measure_grid(grid)

    return [
        overhead_row(
            f"measure_grid x{CALLS} ({LEVELS.size}^2 {label})",
            CALLS * grid.size,
            lambda grid=grid: [bare.measure_grid(grid) for _ in range(CALLS)],
            lambda grid=grid: [wrapped.measure_grid(grid)
                               for _ in range(CALLS)],
            float(np.max(np.abs(wrapped.measure_grid(grid)
                                - bare.measure_grid(grid)))))
        for label, grid in grids]


def test_bench_disabled_injection_overhead():
    rows = run_overhead_comparison()

    print()
    print(format_table(
        ["plane", "probes", "bare (ms)", "resilience-wrapped (ms)",
         "overhead", "max |diff| (dB)"],
        [[row["plane"], row["probes"], row["bare_ms"], row["wrapped_ms"],
          row["overhead_fraction"], row["max_error_db"]] for row in rows],
        precision=4,
        title="Resilience stack overhead with injection disabled"))

    for row in rows:
        assert row["max_error_db"] <= PARITY_DB, row
        assert row["overhead_fraction"] < MAX_OVERHEAD_FRACTION, row
