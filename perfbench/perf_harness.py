"""Run one workload: untimed set-up, a memory pass, timed passes, checks.

An untraced run (``trace=False``) reports the end-to-end metrics:

* ``pass_s`` — median time of one pass at the reference host speed (see
  :class:`SpeedProbe`), over the timed passes: at least
  :data:`MIN_PASSES`, then more while the next one is expected to end
  within ``seconds`` of the first;
* ``peak_mem_mb`` — how far one pass of its own, which is also the
  warm-up pass, raises the resident set above its size at the start of
  the pass, read from the kernel's peak counter (no allocation tracing,
  which slowed a pass about 4x);
* ``setup_s`` — median time of one set-up (inputs, objects and the
  fleets' lazy link caches) at the reference host speed:
  :data:`SETUPS_PER_PASS` set-ups before each timed pass, so that they
  sample the whole run as ``pass_s`` does.

A traced run times untraced passes, then the same number of passes with
every seam of :mod:`perf_tracing` wrapped, and reports the per-layer
metrics plus the tracing overhead (traced minus untraced median).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import signal
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import perf_tracing
from perf_tracing import LayerReport, Tracer, layer_metrics, select, traced
from perf_workloads import PassCheck
from repro.experiments.store import code_fingerprint

MIN_PASSES = 3
SETUPS_PER_PASS = 5
MIN_TRACED_PASSES = 2

#: Seconds between two speed samples inside a timed pass.
PROBE_INTERVAL_S = 0.05

#: The probe work's time inside a pass on a 2-vCPU Xeon VM at 2.0 GHz
#: in a quiet phase, so that ``pass_s`` and ``setup_s`` read roughly as
#: seconds on that host.
PROBE_REFERENCE_S = 0.0028

_RNG = np.random.default_rng(0)
_OBJECTS = [float(value) for value in _RNG.standard_normal(400_000)]
_WALK = [int(index) for index in _RNG.integers(0, len(_OBJECTS), 8_000)]
_VECTOR = _RNG.standard_normal(25_000)
_SMALL = _VECTOR[:64].copy()


def probe_work() -> None:
    """Fixed work, 2-3 ms on a quiet host, in the program's four modes:
    Python arithmetic, Python object access over megabytes, NumPy math
    on a vector of tens of thousands of elements, and many NumPy calls
    on small vectors."""
    total = 0
    for step in range(7000):
        total += step * step % 7
    walked = 0.0
    for index in _WALK:
        walked += _OBJECTS[index]
    np.abs(np.exp(1j * _VECTOR) * (_VECTOR + 0.5)).sum()
    for _ in range(60):
        np.abs(np.exp(1j * _SMALL) * (_SMALL + 0.5)).sum()


class SpeedProbe:
    """Times code at the reference host speed.

    On a shared host the same pass runs up to ~2x slower for seconds to
    minutes at a time, switching within a second, and CPU time slows
    with it.  So the probe times :func:`probe_work` right before and
    right after the measured code and, from a ``SIGALRM`` interval
    timer, every :data:`PROBE_INTERVAL_S` inside it.  Each sample gives
    the host's speed at that moment (reference time over sample time);
    the measured time, less the samples taken inside it, times their
    mean speed is the time the code takes at the reference speed.  A
    change to the program moves the code's time and not the probe's,
    so it shows in full.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.inside_s = 0.0
        self._busy = False

    def sample(self) -> None:
        started = time.perf_counter()
        probe_work()
        self.samples.append(time.perf_counter() - started)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        started = time.perf_counter()
        self.sample()
        self.inside_s += time.perf_counter() - started
        self._busy = False

    @contextmanager
    def _sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def measure(self, function, *args, exponent: float = 1.0):
        """``(result, seconds at the reference speed, wall seconds)``
        of one call, for code whose time follows the probe's speed to
        the power ``exponent``."""
        self.samples.clear()
        self.inside_s = 0.0
        self.sample()
        with self._sampling():
            started = time.perf_counter()
            result = function(*args)
            wall = time.perf_counter() - started
        self.sample()
        speed = statistics.fmean((PROBE_REFERENCE_S / elapsed) ** exponent
                                 for elapsed in self.samples)
        return result, (wall - self.inside_s) * speed, wall


class Tally:
    """Attempted and failed operations, and what failed, over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.counts: Dict[str, float] = {}

    def add(self, check: PassCheck) -> None:
        self.attempted += check.attempted
        self.failed += check.failed
        self.problems.extend(check.problems)
        self.counts = dict(check.counts)

    @property
    def correct(self) -> bool:
        return not self.problems


def _timed_pass(workload, state):
    gc.collect()
    started = time.perf_counter()
    outputs = workload.run(state)
    return outputs, time.perf_counter() - started


def _status_bytes(field: str) -> int:
    """One ``/proc/self/status`` memory field (reported in KiB)."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"/proc/self/status has no {field}")


def _memory_pass(workload, state):
    gc.collect()
    # Writing 5 resets the peak resident set size (VmHWM) to the current.
    with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
        refs.write("5")
    before = _status_bytes("VmRSS")
    outputs = workload.run(state)
    return outputs, (_status_bytes("VmHWM") - before) / 1e6


def _setup(workload, seed: int, reference: Optional[Dict]):
    state = workload.setup(seed)
    state.reference = reference
    return state


def run_untraced(workload, seed: int, seconds: float,
                 reference: Optional[Dict]) -> Tuple[Dict, Tally, int]:
    """End-to-end metrics of one run; returns (metrics, tally, passes)."""
    tally = Tally()
    probe = SpeedProbe()
    setups: List[float] = []
    passes: List[float] = []
    walls: List[float] = []
    state = _setup(workload, seed, reference)  # warm-up, untimed
    try:
        outputs, peak_mb = _memory_pass(workload, state)
        tally.add(workload.verify(state, outputs))
        del outputs
        started = time.perf_counter()
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - started + statistics.median(walls)
               <= seconds):
            for _ in range(SETUPS_PER_PASS):
                gc.collect()
                other, elapsed, _ = probe.measure(_setup, workload, seed,
                                                  reference)
                workload.close(other)
                setups.append(elapsed)
            gc.collect()
            outputs, elapsed, wall = probe.measure(
                workload.run, state, exponent=workload.speed_exponent)
            passes.append(elapsed)
            walls.append(wall)
            tally.add(workload.verify(state, outputs))
            del outputs
    finally:
        workload.close(state)
    metrics = {
        "pass_s": statistics.median(passes),
        "peak_mem_mb": peak_mb,
        "setup_s": statistics.median(setups),
        # Raw figures, for the run-table row only.
        "wall_s": statistics.median(walls),
        "speed": statistics.median(passes) / statistics.median(walls),
    }
    return metrics, tally, len(passes)


def run_traced(workload, seed: int, seconds: float, reference: Optional[Dict],
               names) -> Tuple[Dict, Tally, int, Dict]:
    """The per-layer metrics ``names`` of one run; returns (metrics,
    tally, passes, spans) where ``spans`` holds the set-up's and last
    traced pass's."""
    tally = Tally()
    setup_tracer = Tracer()
    with traced(setup_tracer):
        state = _setup(workload, seed, reference)
    setup_report = LayerReport(setup_tracer.spans)
    try:
        outputs, _ = _timed_pass(workload, state)  # warm-up
        tally.add(workload.verify(state, outputs))
        del outputs
        untraced: List[float] = []
        started = time.perf_counter()
        while (len(untraced) < MIN_TRACED_PASSES
               or time.perf_counter() - started < seconds / 2):
            outputs, wall = _timed_pass(workload, state)
            untraced.append(wall)
            tally.add(workload.verify(state, outputs))
            del outputs
        per_pass: List[Dict[str, float]] = []
        traced_walls: List[float] = []
        last_spans: List = []
        for _ in range(len(untraced)):
            tracer = Tracer()
            gc.collect()
            with traced(tracer):
                with tracer.span("pass") as root:
                    outputs = workload.run(state)
            check = workload.verify(state, outputs)
            tally.add(check)
            del outputs
            wall = root.end - root.start
            traced_walls.append(wall)
            per_pass.append(select(
                layer_metrics(LayerReport(tracer.spans), setup_report, wall,
                              check.counts), names))
            last_spans = tracer.spans
    finally:
        workload.close(state)
    baseline = statistics.median(untraced)
    overhead = statistics.median(traced_walls) - baseline
    metrics = {name: statistics.median(values[name] for values in per_pass)
               for name in per_pass[0]}
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / baseline
    spans = {"setup": perf_tracing.span_records(setup_tracer.spans),
             "pass": perf_tracing.span_records(last_spans),
             "untraced_wall_s": baseline}
    return metrics, tally, len(untraced) + len(traced_walls), spans


def commit_of(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = root / ".git" / text[5:]
            if ref.is_file():
                return ref.read_text().strip()
            packed = root / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + text[5:]):
                    return line.split()[0]
            return None
        return text
    except OSError:
        return None


def run_row(workload, seed: int, trace: bool, seconds: float, root: Path,
            metrics: Dict[str, float], tally: Tally, passes: int) -> Dict:
    """The run-table row: one per (workload, run), stamped with the
    machine, the versions and the code it measured."""
    return {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "seconds": seconds, "passes": passes,
        "cpu_count": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": commit_of(root), "source_digest": code_fingerprint(),
        "sizes": workload.sizes(), "counts": tally.counts,
        "attempted": tally.attempted, "failed": tally.failed,
        "correct": tally.correct, "problems": tally.problems[:20],
        "metrics": metrics,
    }


def result_line(metrics: Dict[str, float], units: Dict[str, str],
                tally: Tally) -> str:
    """The last stdout line: correctness, operations and metrics."""
    return json.dumps({
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    })
