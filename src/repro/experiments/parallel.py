"""Multiprocess execution of the experiment suite.

:func:`run_all_parallel` is the experiment-level executor behind
``Runner.run_all(workers=N)`` and ``python -m repro.experiments
run-all --workers N``.  The registry selection is the work list; a
``ProcessPoolExecutor`` of ``N`` workers *claims* one experiment at a
time off it (at most one unclaimed slice is in flight per idle worker,
so a slow experiment never starves the queue), runs it in the child
through an ordinary store-less :class:`~repro.experiments.runner.Runner`,
and ships the result back as the lossless tagged JSON of
:mod:`repro.experiments.artifacts`.  The parent
:meth:`~repro.experiments.runner.Runner.absorb`\\ s every envelope, so
its memory cache and :class:`~repro.experiments.store.ResultStore` end
up exactly as a serial run would leave them — and results come back in
registry order, ``payload_equal`` to the serial path (every
experiment's RNG is seeded from its own parameters, so streams cannot
depend on which worker claimed it).

The executor reports through :class:`ProgressReporter`
(claimed/done/total slices plus an ETA — the ``run-all`` live progress
line).  Worker processes default to the ``fork`` start method where the
platform offers it (cheap, inherits warm caches) and fall back to
``spawn``; either way the child re-imports :mod:`repro.experiments`
before touching the registry, so the catalogue exists even in a cold
interpreter.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)


def default_mp_context() -> str:
    """``fork`` where available (cheap, warm caches), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# ---------------------------------------------------------------------- #
# Progress reporting
# ---------------------------------------------------------------------- #
class ProgressReporter:
    """Claimed/done/total slice accounting with a live ETA line.

    On a TTY the line redraws in place (``\\r``); on plain streams every
    completion prints a full line, so CI logs keep the history.  The
    reporter is shared by the serial and parallel ``run_all`` paths;
    its "slices" are experiments.
    """

    def __init__(self, total: int, label: str = "run-all",
                 stream: Optional[TextIO] = None,
                 enabled: bool = True,
                 clock: Optional[Callable[[], float]] = None) -> None:
        # A negative total is a caller bug, but the reporter is pure
        # accounting — clamp rather than poison every later division.
        self.total = max(0, int(total))
        self.label = label
        self.stream = stream if stream is not None else sys.stdout
        self.enabled = bool(enabled)
        self.claimed = 0
        self.done = 0
        self.computed = 0
        self.cached = 0
        self.failed = 0
        self._clock = clock if clock is not None else time.perf_counter
        self._started = self._clock()
        self._live_line = False

    # -------------------------------------------------------------- #
    # Events
    # -------------------------------------------------------------- #
    def claim(self, name: str = "") -> None:
        """One slice was handed to a worker (or the serial loop)."""
        self.claimed += 1
        self._render(f"claimed {name}" if name else "claimed")

    def finish(self, name: str, status: str = "ok",
               elapsed: Optional[float] = None) -> None:
        """One slice completed; ``status`` is ``ok``/``cached``/...."""
        self.done += 1
        if status == "cached":
            self.cached += 1
        elif status.startswith("fail") or status.startswith("CHECK"):
            self.failed += 1
            self.computed += 1
        else:
            self.computed += 1
        timing = f" {elapsed:7.2f}s" if elapsed is not None else ""
        self._print_line(f"{name:24s}{timing}  {status}")
        self._render("")

    @contextmanager
    def timed(self, name: str, status: str = "ok") -> Iterator[None]:
        """Time one serial slice and emit its completion line."""
        start = self._clock()
        yield
        self.finish(name, status=status,
                    elapsed=max(0.0, self._clock() - start))

    # -------------------------------------------------------------- #
    # Rendering
    # -------------------------------------------------------------- #
    def eta_seconds(self) -> Optional[float]:
        """Estimated seconds to completion (``None`` before any data).

        Never negative: a clock stepping backwards (NTP slew, frozen
        test clocks) clamps elapsed time to zero, and completions past
        ``total`` (double-counted slices) clamp the remainder.
        """
        if self.done == 0 or self.total == 0:
            return None
        elapsed = max(0.0, self._clock() - self._started)
        remaining = max(0, self.total - self.done)
        return elapsed / self.done * remaining

    def line(self, suffix: str = "") -> str:
        """The live progress line."""
        eta = self.eta_seconds()
        eta_text = f"{eta:.1f}s" if eta is not None else "--"
        text = (f"[{self.label}] claimed {self.claimed}/{self.total}  "
                f"done {self.done}/{self.total}  eta {eta_text}")
        return f"{text}  {suffix}" if suffix else text

    def summary(self) -> str:
        """Post-run accounting (the CLI's closing line)."""
        elapsed = max(0.0, self._clock() - self._started)
        return (f"{self.done}/{self.total} slices in {elapsed:.2f}s "
                f"({self.computed} computed, {self.cached} cached)")

    def _is_tty(self) -> bool:
        return bool(getattr(self.stream, "isatty", lambda: False)())

    def _render(self, suffix: str) -> None:
        if not self.enabled:
            return
        if self._is_tty():
            self.stream.write("\r\x1b[2K" + self.line(suffix))
            if self.done >= self.total:
                self.stream.write("\n")
                self._live_line = False
            else:
                self._live_line = True
            self.stream.flush()
        else:
            self.stream.write(self.line(suffix) + "\n")
            self.stream.flush()

    def _print_line(self, text: str) -> None:
        if not self.enabled:
            return
        if self._live_line:
            self.stream.write("\r\x1b[2K")
            self._live_line = False
        self.stream.write(text + "\n")
        self.stream.flush()


# ---------------------------------------------------------------------- #
# Claiming pool driver
# ---------------------------------------------------------------------- #
def _worker_init(sys_paths: List[str]) -> None:
    """Make the parent's import roots visible in a spawned child."""
    for path in reversed(sys_paths):
        if path not in sys.path:
            sys.path.insert(0, path)


def _claimed_completions(
    pool: ProcessPoolExecutor,
    tasks: Sequence[Tuple[str, Callable[..., Any], Tuple[Any, ...]]],
    window: int,
    progress: Optional[ProgressReporter],
) -> Iterator[Tuple[str, Any]]:
    """Run ``tasks`` through ``pool`` with slice claiming.

    At most ``window`` slices are claimed (submitted) at once; each
    completion claims the next unclaimed slice, so workers pull work as
    they free up instead of the queue being dealt out up front.  Yields
    ``(label, result)`` in completion order; a worker exception
    propagates immediately (remaining claims are cancelled by the
    caller's shutdown).
    """
    queue = deque(tasks)
    pending: Dict[Any, str] = {}

    def claim_next() -> None:
        if not queue:
            return
        label, function, args = queue.popleft()
        future = pool.submit(function, *args)
        pending[future] = label
        if progress is not None:
            progress.claim(label)

    for _ in range(max(1, window)):
        claim_next()
    while pending:
        done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
        for future in done:
            label = pending.pop(future)
            yield label, future.result()
            claim_next()


# ---------------------------------------------------------------------- #
# Experiment-level executor (run_all --workers N)
# ---------------------------------------------------------------------- #
_WORKER_RUNNER = None


def _run_experiment_in_worker(name: str,
                              params: Mapping[str, Any]) -> Tuple[str, float]:
    """Child-side slice body: run one experiment, return its JSON.

    ``params`` is the parent's fully-resolved parameter dict, so the
    child's ``resolve`` reproduces it exactly and the content key — and
    every parameter-derived RNG seed — is identical no matter which
    worker claimed the slice.
    """
    import repro.experiments  # noqa: F401  (registers the catalogue)
    from repro.experiments.runner import Runner

    global _WORKER_RUNNER
    if _WORKER_RUNNER is None:
        _WORKER_RUNNER = Runner()
    start = time.perf_counter()
    result = _WORKER_RUNNER.run(name, **dict(params))
    return result.to_json(), time.perf_counter() - start


def run_all_parallel(
    runner: Any,
    specs: Sequence[Any],
    smoke: bool = False,
    workers: int = 2,
    overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
    progress: Optional[ProgressReporter] = None,
    mp_context: Optional[str] = None,
) -> List[Any]:
    """Execute ``specs`` across a claiming worker pool.

    The parent resolves every spec's parameters first and serves
    anything its two-tier cache already holds (those slices finish as
    ``cached`` without touching the pool — a warm store makes this a
    zero-evaluation pass).  The rest are claimed by worker processes;
    each returned envelope is re-hydrated from its lossless JSON and
    absorbed into the parent's caches.  Results are returned in spec
    order, ``payload_equal`` to a serial ``run_all``.
    """
    from repro.experiments.runner import ExperimentResult

    overrides = overrides or {}
    results: Dict[str, Any] = {}
    tasks: List[Tuple[str, Callable[..., Any], Tuple[Any, ...]]] = []
    for spec in specs:
        spec_overrides = dict(overrides.get(spec.name, {}))
        if runner.cached(spec.name, smoke=smoke, **spec_overrides):
            if progress is not None:
                progress.claim(spec.name)
                with progress.timed(spec.name, "cached"):
                    results[spec.name] = runner.run(spec.name, smoke=smoke,
                                                    **spec_overrides)
            else:
                results[spec.name] = runner.run(spec.name, smoke=smoke,
                                                **spec_overrides)
            continue
        params = runner.resolved_params(spec.name, smoke=smoke,
                                        **spec_overrides)
        tasks.append((spec.name, _run_experiment_in_worker,
                      (spec.name, params)))

    if tasks:
        context = multiprocessing.get_context(mp_context or
                                              default_mp_context())
        pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                                   mp_context=context,
                                   initializer=_worker_init,
                                   initargs=(list(sys.path),))
        try:
            for name, (text, elapsed) in _claimed_completions(
                    pool, tasks, workers, progress):
                result = ExperimentResult.from_json(
                    text, registry=runner.registry)
                runner.absorb(result)
                results[name] = result
                if progress is not None:
                    progress.finish(name, "ok", elapsed)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    return [results[spec.name] for spec in specs]


__all__ = [
    "ProgressReporter",
    "default_mp_context",
    "run_all_parallel",
]
