"""In-memory span tracing for the benchmark's traced run.

The traced run times each layer from outside, at its entry point: the
seams in :data:`SEAMS` are wrapped by attribute patching for the
duration of :func:`traced` and restored afterwards, so ``src/`` is never
edited and an untraced pass runs the original methods.  Spans are kept
in memory with name, start, end, parent and a work count, and are only
reduced (self time, busy time, shares) after the pass has ended.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.api.fleet import FleetSession
from repro.channel.link import WirelessLink
from repro.core.controller import CentralizedController
from repro.experiments.registry import ExperimentSpec
from repro.experiments.store import ResultStore
from repro.metasurface.surface import Metasurface
from repro.serve import loadgen
from repro.serve.service import SurfaceService
from repro.world.dynamics import WorldTimeline

class Span:
    """One timed call: ``parent`` indexes the enclosing span (-1: root)."""

    __slots__ = ("name", "start", "end", "parent", "count", "detail")

    def __init__(self, name: str, start: float, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.count = 0
        self.detail = None

    def to_dict(self) -> Dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "count": self.count}


class Tracer:
    """Keeps every span of a run in memory, in open order."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        return span

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)


# ---------------------------------------------------------------------- #
# Seams
# ---------------------------------------------------------------------- #
def _axis_elems(args, kwargs, result) -> int:
    return int(np.size(args[2]))


def _budget_cells(args, kwargs, result) -> int:
    return int(np.size(result))


def _jones_elems(args, kwargs, result) -> int:
    return int(np.prod(result.shape[:-2], dtype=np.int64))


def _jones_inputs(args, kwargs, result):
    return args[1:4]


@dataclass(frozen=True)
class Seam:
    """One entry point the traced run wraps.

    ``name`` is a span name, or a callable of the bound instance for
    seams whose span is named per instance (one span name per
    experiment).  ``count`` and ``detail`` read the call's work count
    and the inputs kept for post-pass reduction.
    """

    owner: object
    attribute: str
    name: object
    count: Optional[Callable] = None
    detail: Optional[Callable] = None

    def wrap(self, original: Callable, tracer: Tracer) -> Callable:
        name, count, detail = self.name, self.count, self.detail

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.open(name if isinstance(name, str)
                                else name(args[0]))
            try:
                result = original(*args, **kwargs)
            finally:
                span = tracer.close(index)
            if count is not None:
                span.count = count(args, kwargs, result)
            if detail is not None:
                span.detail = detail(args, kwargs, result)
            return result

        return wrapper


SEAMS: Tuple[Seam, ...] = (
    Seam(WirelessLink, "_axis_parameters", "link.axis_params",
         count=_axis_elems),
    Seam(WirelessLink, "_budget_power_dbm", "link.budget",
         count=_budget_cells),
    Seam(WirelessLink, "evaluate_grid", "link.evaluate_grid"),
    Seam(Metasurface, "jones_matrix_batch", "metasurface.jones",
         count=_jones_elems, detail=_jones_inputs),
    Seam(Metasurface, "reflection_jones_matrix_batch", "metasurface.jones",
         count=_jones_elems, detail=_jones_inputs),
    Seam(WorldTimeline, "distance_plane", "world.trace_planes"),
    Seam(WorldTimeline, "orientation_plane", "world.trace_planes"),
    Seam(WorldTimeline, "best_bias_planes", "world.best_bias_planes"),
    Seam(CentralizedController, "optimize_grid", "controller.optimize_grid"),
    Seam(FleetSession, "optimize_grid", "fleet.optimize_grid"),
    Seam(FleetSession, "schedule", "fleet.schedule"),
    Seam(FleetSession, "probe_aligned", "fleet.probe_aligned"),
    Seam(SurfaceService, "serve_trace", "serve.serve_trace"),
    # A coroutine function: its span closes when the coroutine is
    # created, so it counts batches and times nothing.
    Seam(SurfaceService, "_serve_batch", "serve.batch"),
    Seam(loadgen, "generate_trace", "loadgen.generate"),
    Seam(ExperimentSpec, "run", lambda spec: f"experiments.{spec.name}"),
    Seam(ResultStore, "put", "store.put"),
    Seam(ResultStore, "get", "store.get"),
)


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every seam for the duration of the block, then restore it.

    Restoration puts back the exact objects found in the owners'
    ``__dict__``, so code running after the block sees the original
    functions.
    """
    saved = []
    try:
        for seam in SEAMS:
            original = vars(seam.owner)[seam.attribute]
            saved.append((seam.owner, seam.attribute, original))
            setattr(seam.owner, seam.attribute, seam.wrap(original, tracer))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------- #
# Reduction
# ---------------------------------------------------------------------- #
def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def _distinct_points(inputs) -> int:
    """Distinct (frequency, vx, vy) operating points of one Jones call."""
    frequency, vx, vy = (np.asarray(value, dtype=float) for value in inputs)
    points = np.stack(np.broadcast_arrays(frequency, vx, vy), axis=-1)
    return int(np.unique(points.reshape(-1, 3), axis=0).shape[0])


class LayerReport:
    """Per-layer busy/self time, calls and counts of one traced pass.

    Nested spans of the same layer (the reflective Jones batch calls
    the transmissive one) count once, at the outermost span.
    """

    def __init__(self, spans: List[Span]):
        self.spans = spans
        own = self_times(spans)
        self.busy: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self._outermost: List[bool] = []
        layers = [span.name for span in spans]
        for index, span in enumerate(spans):
            layer = layers[index]
            self.self_s[layer] = self.self_s.get(layer, 0.0) + own[index]
            outermost = not self._has_ancestor(index, layer, layers)
            self._outermost.append(outermost)
            if outermost:
                self.busy[layer] = (self.busy.get(layer, 0.0)
                                    + span.end - span.start)
                self.calls[layer] = self.calls.get(layer, 0) + 1
                self.counts[layer] = self.counts.get(layer, 0) + span.count
        self._layers = layers

    def _has_ancestor(self, index: int, layer: str, layers: List[str]) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if layers[parent] == layer:
                return True
            parent = self.spans[parent].parent
        return False

    def descendants(self, layer: str, ancestor: str) -> int:
        """Outermost ``layer`` spans nested anywhere under ``ancestor``."""
        total = 0
        for index, span in enumerate(self.spans):
            if self._layers[index] != layer or not self._outermost[index]:
                continue
            if self._has_ancestor(index, ancestor, self._layers):
                total += 1
        return total

    def distinct_ratio(self, layer: str) -> float:
        """Distinct operating points over elements computed (1 = no reuse
        left on the table); 0 when the layer did not run."""
        elements = distinct = 0
        for index, span in enumerate(self.spans):
            if (self._layers[index] == layer and self._outermost[index]
                    and span.detail is not None):
                elements += span.count
                distinct += _distinct_points(span.detail)
        return distinct / elements if elements else 0.0


def layer_metrics(report: LayerReport, setup: LayerReport, wall_s: float,
                  counts: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer value of one traced pass, by metric name.

    ``wall_s`` is the traced pass's wall time (the share denominator);
    ``counts`` carries the workload's own counts (serve statuses, store
    counters).  Each experiment that ran gets ``experiments.<name>_s``.
    """
    busy, calls = report.busy, report.calls

    def time_of(layer: str) -> float:
        return busy.get(layer, 0.0)

    def share(seconds: float) -> float:
        return seconds / wall_s if wall_s > 0 else 0.0

    budget_cells = report.counts.get("link.budget", 0)
    values: Dict[str, float] = {
        "world.trace_planes_s": time_of("world.trace_planes"),
        "world.trace_planes_calls": calls.get("world.trace_planes", 0),
        "world.trace_planes_share": share(time_of("world.trace_planes")),
        "world.retune_reduce_s": report.self_s.get(
            "world.best_bias_planes", 0.0),
        "world.retune_reduce_share": share(report.self_s.get(
            "world.best_bias_planes", 0.0)),
        "link.axis_params_s": time_of("link.axis_params"),
        "link.axis_params_calls": calls.get("link.axis_params", 0),
        "link.axis_params_elems": report.counts.get("link.axis_params", 0),
        "link.axis_params_share": share(time_of("link.axis_params")),
        "link.budget_s": time_of("link.budget"),
        "link.budget_self_s": report.self_s.get("link.budget", 0.0),
        "link.budget_passes": calls.get("link.budget", 0),
        "link.budget_cells": budget_cells,
        "link.budget_ns_per_cell": (time_of("link.budget") * 1e9
                                    / budget_cells if budget_cells else 0.0),
        "link.budget_share": share(time_of("link.budget")),
        "metasurface.jones_s": time_of("metasurface.jones"),
        "metasurface.jones_calls": calls.get("metasurface.jones", 0),
        "metasurface.jones_elems": report.counts.get("metasurface.jones", 0),
        "metasurface.jones_distinct_ratio": report.distinct_ratio(
            "metasurface.jones"),
        "metasurface.jones_share": share(time_of("metasurface.jones")),
        "controller.optimize_grid_s": time_of("controller.optimize_grid"),
        "controller.optimize_grid_self_s": report.self_s.get(
            "controller.optimize_grid", 0.0),
        "controller.optimize_grid_calls": calls.get(
            "controller.optimize_grid", 0),
        "controller.optimize_grid_passes": report.descendants(
            "link.budget", "controller.optimize_grid"),
        "controller.optimize_grid_share": share(
            time_of("controller.optimize_grid")),
        "fleet.schedule_s": time_of("fleet.schedule"),
        "fleet.schedule_self_s": report.self_s.get("fleet.schedule", 0.0),
        "fleet.schedule_calls": calls.get("fleet.schedule", 0),
        "fleet.schedule_share": share(time_of("fleet.schedule")),
        "fleet.probe_aligned_s": time_of("fleet.probe_aligned"),
        "fleet.probe_aligned_calls": calls.get("fleet.probe_aligned", 0),
        "fleet.probe_aligned_share": share(time_of("fleet.probe_aligned")),
        "serve.self_s": report.self_s.get("serve.serve_trace", 0.0),
        "serve.self_share": share(report.self_s.get("serve.serve_trace",
                                                    0.0)),
        "serve.batches": calls.get("serve.batch", 0),
        "loadgen.generate_s": setup.busy.get("loadgen.generate", 0.0),
        "store.put_s": time_of("store.put"),
        "store.get_s": time_of("store.get"),
        "trace.spans": len(report.spans),
    }
    for layer, seconds in busy.items():
        if layer.startswith("experiments."):
            values[f"{layer}_s"] = seconds
    values.update(counts)
    return {name: float(value) for name, value in values.items()}


def select(values: Dict[str, float], names) -> Dict[str, float]:
    """The named metrics out of :func:`layer_metrics`' values.

    A layer the pass did not run reports 0, and ``experiments.other_s``
    sums the experiments that have no metric of their own.
    """
    chosen = {name: values.get(name, 0.0) for name in names}
    if "experiments.other_s" in chosen:
        chosen["experiments.other_s"] = sum(
            value for name, value in values.items()
            if name.startswith("experiments.") and name not in chosen)
    return chosen


def span_records(spans: List[Span]) -> List[Dict]:
    """JSON-ready span list (parents index into the same list)."""
    return [span.to_dict() for span in spans]
