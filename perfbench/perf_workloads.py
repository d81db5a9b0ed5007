"""The benchmark's four workloads.

Each workload builds its inputs from the seed in :meth:`setup` (fleets,
traces, load traces), runs one pass of the program in :meth:`run`, and
checks that pass's outputs in :meth:`verify`, which returns how many of
the pass's operations were attempted and how many failed.  A failed
check fails every operation of its pass.  Sizes are constructor
arguments only so that the self-tests can run the same code small; the
benchmark always uses the defaults.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional

import numpy as np

from repro.api.fleet import FleetSession, FleetSpec
from repro.channel.grid import ProbeGrid
from repro.channel.link import probe_evaluations
from repro.experiments.registry import REGISTRY
from repro.experiments.runner import Runner
from repro.experiments.store import ResultStore, code_fingerprint
from repro.serve import loadgen
from repro.serve.requests import REQUEST_KINDS, RequestTrace
from repro.serve.service import ServiceConfig, serve_trace
from repro.world import MobilityTrace, RotationTrace, WorldTimeline

#: Agreement required between two views of the same physics (dB).
PARITY_DB = 1e-9


@dataclass
class PassCheck:
    """Operations one pass attempted and failed, plus what went wrong."""

    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)


def _fail_all(check: PassCheck) -> PassCheck:
    if check.problems:
        check.failed = check.attempted
    return check


def _worst(a, b) -> float:
    difference = np.abs(np.asarray(a, dtype=float)
                        - np.asarray(b, dtype=float))
    return float(np.max(difference)) if difference.size else 0.0


def _mismatches(fingerprint: Dict, expected: Dict) -> List[str]:
    """Keys whose values (numbers or lists of numbers) differ in shape
    or by more than :data:`PARITY_DB`."""
    return [key for key, value in fingerprint.items()
            if np.shape(value) != np.shape(expected[key])
            or not _worst(value, expected[key]) <= PARITY_DB]


def _fill_link_caches(fleet: FleetSession) -> None:
    """Build the stacked ensembles and their cached fields."""
    for ensemble in (fleet.ensemble, fleet.baseline_ensemble):
        ensemble.link.evaluate_grid(
            ProbeGrid.aligned(**ensemble.station_grid(0)))


class WorldRetune:
    """A retuned world timeline: moving and rotating stations."""

    name = "world_retune"
    speed_exponent = 1.0

    def __init__(self, epochs: int = 1000, stations: int = 64,
                 time_step_s: float = 0.1, step_v: float = 5.0,
                 sample_cells: int = 256, argmax_cells: int = 8):
        self.epochs = epochs
        self.stations = stations
        self.time_step_s = time_step_s
        self.step_v = step_v
        self.sample_cells = sample_cells
        self.argmax_cells = argmax_cells

    def sizes(self) -> Dict[str, float]:
        return {"epochs": self.epochs, "stations": self.stations,
                "step_v": self.step_v}

    def setup(self, seed: int) -> SimpleNamespace:
        spec = FleetSpec.office(station_count=self.stations, seed=seed)
        names = spec.station_names
        half = self.stations // 2
        duration_s = self.epochs * self.time_step_s
        mobility = {name: MobilityTrace.random_waypoint(
            seed, name, duration_s=duration_s) for name in names[:half]}
        rotation = {name: RotationTrace.random_walk(
            seed, name, duration_s=duration_s) for name in names[half:]}
        timeline = WorldTimeline(spec, mobility=mobility, rotation=rotation,
                                 duration_s=duration_s,
                                 time_step_s=self.time_step_s)
        if timeline.epoch_count != self.epochs:
            raise ValueError(f"epoch grid has {timeline.epoch_count} "
                             f"epochs, expected {self.epochs}")
        _fill_link_caches(timeline.fleet)
        return SimpleNamespace(seed=seed, timeline=timeline, first=None,
                               reference=None)

    def run(self, state):
        return state.timeline.run(bias_search_step_v=self.step_v)

    def fingerprint(self, state, report) -> Dict:
        # Powers, not biases: two candidates within round-off of each
        # other may trade places between equally correct views of the
        # engine.  The trace digests are exact.
        return {"trace_digest": zlib.crc32(
                    repr(report.trace_digests).encode()),
                "mean_gain_db": report.mean_gain_db,
                "station_with_dbm": report.powers_with_dbm.mean(
                    axis=0).tolist(),
                "station_without_dbm": report.powers_without_dbm.mean(
                    axis=0).tolist()}

    def verify(self, state, report) -> PassCheck:
        check = PassCheck(attempted=1)
        levels = np.arange(0.0, 30.0 + 0.5 * self.step_v, self.step_v)
        check.counts = {"cells": (levels.size ** 2 + 1) * report.gains_db.size,
                        "epochs": report.gains_db.shape[0]}
        problems = check.problems
        if report.powers_with_dbm.shape != (self.epochs, self.stations):
            problems.append(f"plane shape {report.powers_with_dbm.shape}")
        elif not (np.all(np.isfinite(report.powers_with_dbm))
                  and np.all(np.isfinite(report.powers_without_dbm))):
            problems.append("non-finite powers")
        fingerprint = self.fingerprint(state, report)
        if state.first is None:
            state.first = fingerprint
            problems.extend(self._against_scalar(state, report, levels))
        elif _mismatches(fingerprint, state.first):
            problems.append("pass differs from the run's first pass")
        if state.reference is not None:
            problems.extend(f"{key} differs from reference" for key in
                            _mismatches(fingerprint, state.reference))
        return _fail_all(check)

    def _against_scalar(self, state, report, levels) -> List[str]:
        """Sampled cells against one-cell probes (``evaluate_reference``'s
        per-cell probe), and the retuned bias against the full lattice."""
        timeline = state.timeline
        times = timeline.times()
        distances = timeline.distance_plane(times)
        orientations = timeline.orientation_plane(times)
        rng = np.random.default_rng(state.seed)
        cells = rng.choice(distances.size,
                           size=min(self.sample_cells, distances.size),
                           replace=False)

        def probe(ensemble, t, i, vx, vy) -> float:
            tx_power = ensemble.parameter("tx_power_dbm")
            return float(ensemble.link.evaluate_grid(ProbeGrid.aligned(
                distance=np.float64(distances[t, i]),
                tx_orientation=np.float64(orientations[t, i]),
                tx_power=np.float64(tx_power[i]),
                vx=np.float64(vx), vy=np.float64(vy))))

        deployment = timeline.fleet.deployment
        with_surface = deployment.ensemble_for(with_surface=True)
        without = deployment.ensemble_for(with_surface=False)
        problems = []
        worst = 0.0
        for cell in cells:
            t, i = divmod(int(cell), distances.shape[1])
            worst = max(
                worst,
                abs(probe(with_surface, t, i, report.bias_vx[t, i],
                          report.bias_vy[t, i])
                    - report.powers_with_dbm[t, i]),
                abs(probe(without, t, i, 0.0, 0.0)
                    - report.powers_without_dbm[t, i]))
        if not worst <= PARITY_DB:
            problems.append(f"sampled cells off the scalar probe by "
                            f"{worst:.3g} dB")
        for cell in cells[:self.argmax_cells]:
            t, i = divmod(int(cell), distances.shape[1])
            best = max(probe(with_surface, t, i, vx, vy)
                       for vx in levels for vy in levels)
            if abs(best - report.powers_with_dbm[t, i]) > PARITY_DB:
                problems.append(f"cell ({t}, {i}) retuned below the "
                                "lattice optimum")
        return problems

    def close(self, state) -> None:
        pass


class FleetSweep:
    """The exhaustive bias sweep over every station of one fleet."""

    name = "fleet_sweep"
    # Its large NumPy batches slow less than the speed probe in the
    # host's slow phases: over ten runs the pass time followed the
    # probe's speed to the power 0.7 (to the power 1, the runs' medians
    # spread by 0.11 of their median; to 0.7, by 0.02).
    speed_exponent = 0.7

    def __init__(self, stations: int = 256, step_v: float = 0.5,
                 sample_stations: int = 8):
        self.stations = stations
        self.step_v = step_v
        self.sample_stations = sample_stations

    def sizes(self) -> Dict[str, float]:
        return {"stations": self.stations, "step_v": self.step_v}

    def setup(self, seed: int) -> SimpleNamespace:
        fleet = FleetSession(FleetSpec.office(station_count=self.stations,
                                              seed=seed))
        _fill_link_caches(fleet)
        return SimpleNamespace(seed=seed, fleet=fleet, first=None,
                               reference=None)

    def run(self, state):
        return state.fleet.optimize_grid(exhaustive=True, step_v=self.step_v)

    def fingerprint(self, state, sweep) -> Dict:
        # Powers only: two lattice points within round-off of each other
        # may trade places between equally correct views of the engine.
        return {"best_power_dbm": sweep.best_power_dbm.ravel().tolist()}

    def verify(self, state, sweep) -> PassCheck:
        check = PassCheck(attempted=1, counts={
            "exhaustive_cells": (sweep.point_count
                                 * sweep.probe_count_per_point)})
        problems = check.problems
        fingerprint = self.fingerprint(state, sweep)
        if state.first is None:
            state.first = fingerprint
            problems.extend(self._against_stacked_search(state, sweep))
        elif _mismatches(fingerprint, state.first):
            problems.append("pass differs from the run's first pass")
        if state.reference is not None:
            problems.extend(f"{key} differs from reference" for key in
                            _mismatches(fingerprint, state.reference))
        return _fail_all(check)

    def _against_stacked_search(self, state, sweep) -> List[str]:
        """Sampled stations against the deployment's own grid search."""
        fleet = state.fleet
        rng = np.random.default_rng(state.seed)
        picks = np.sort(rng.choice(self.stations, replace=False,
                                   size=min(self.sample_stations,
                                            self.stations)))
        _, _, power = fleet.deployment.best_bias_per_station(
            step_v=self.step_v,
            names=[fleet.station_names[index] for index in picks])
        if _worst(power, sweep.best_power_dbm[picks]) > PARITY_DB:
            return ["sampled stations disagree with best_bias_per_station"]
        return []

    def close(self, state) -> None:
        pass


def exact_mix(trace: RequestTrace, mix: loadgen.RequestMix,
              seed: int) -> RequestTrace:
    """``trace`` with its request kinds dealt, in a seeded shuffle, in
    exactly the mix's shares.  Drawn one by one, the optimize requests,
    which take most of a pass, numbered 84-120 over ten seeds and moved
    the pass time with them."""
    counts = np.round(mix.probabilities() * len(trace)).astype(int)
    counts[0] += len(trace) - counts.sum()  # measure takes the rest
    kinds = np.repeat(REQUEST_KINDS, counts)
    np.random.default_rng(seed).shuffle(kinds)
    return RequestTrace(requests=tuple(
        dataclasses.replace(request, kind=str(kind))
        for request, kind in zip(trace.requests, kinds)))


def response_digest(responses) -> int:
    """CRC32 of every response's id, kind, station, status, virtual
    completion time, batch size and detail (not the measured value)."""
    text = ";".join(
        f"{r.request_id}|{r.kind}|{r.station}|{r.status}|"
        f"{r.completed_s!r}|{r.batch_size}|{r.detail}" for r in responses)
    return zlib.crc32(text.encode())


class ServeStorm:
    """A bursty mixed request storm through the batching service."""

    name = "serve_storm"
    speed_exponent = 1.0

    def __init__(self, stations: int = 200, rate_rps: float = 600.0,
                 duration_s: float = 5.0):
        self.stations = stations
        self.rate_rps = rate_rps
        self.duration_s = duration_s
        # Bursts peak at ~330 queued requests on seeds 1-11; a 256 queue
        # sheds 5-115 of them, and shed requests are failed operations.
        self.config = ServiceConfig(batch_window_s=0.005, queue_capacity=1024)

    def sizes(self) -> Dict[str, float]:
        return {"stations": self.stations, "rate_rps": self.rate_rps,
                "duration_s": self.duration_s}

    def setup(self, seed: int) -> SimpleNamespace:
        spec = FleetSpec.office(station_count=self.stations, seed=seed)
        profile = loadgen.LoadProfile(
            rate_rps=self.rate_rps, duration_s=self.duration_s,
            arrival="burst", burst_cycle_s=0.5, burst_fraction=0.3,
            mix=loadgen.RequestMix(measure=0.85, optimize=0.03,
                                   schedule=0.02, health=0.10),
            seed=seed)
        trace = exact_mix(loadgen.generate_trace(profile, spec.station_names),
                          profile.mix, seed)
        return SimpleNamespace(seed=seed, spec=spec, trace=trace,
                               check_fleet=None, first=None,
                               reference=None)

    def run(self, state):
        # A fresh session per pass: the deployment caches one ensemble
        # per distinct batch, so a replayed storm would otherwise serve
        # from what the previous pass built.
        return serve_trace(FleetSession(state.spec), state.trace, self.config)

    def fingerprint(self, state, result) -> Dict:
        metrics = result.metrics
        return {"digest": response_digest(result.responses),
                "request_count": metrics.request_count,
                "p50_s": metrics.latency.p50_s,
                "p95_s": metrics.latency.p95_s,
                "throughput_rps": metrics.throughput_rps}

    def verify(self, state, result) -> PassCheck:
        metrics = result.metrics
        check = PassCheck(attempted=len(state.trace), counts={
            "requests": metrics.request_count,
            "serve.ok": metrics.ok_count,
            "serve.failed": metrics.failed_count,
            "serve.rejected": metrics.rejected_count,
            "serve.mean_batch": metrics.mean_batch_size})
        problems = check.problems
        fingerprint = self.fingerprint(state, result)
        if metrics.request_count != len(state.trace):
            problems.append(f"{metrics.request_count} responses for "
                            f"{len(state.trace)} requests")
        if state.first is None:
            state.first = fingerprint
        elif _mismatches(fingerprint, state.first):
            problems.append("pass differs from the run's first pass")
        if state.reference is not None:
            problems.extend(f"{key} differs from reference" for key in
                            _mismatches(fingerprint, state.reference))
        ok_measures = [response for response in result.responses
                       if response.kind == "measure" and response.ok]
        if ok_measures:
            if state.check_fleet is None:
                # The checker's own session, built outside the set-up.
                state.check_fleet = FleetSession(state.spec)
            requests = [state.trace.requests[response.request_id]
                        for response in ok_measures]
            expected = state.check_fleet.measure_aligned(
                [request.vx for request in requests],
                [request.vy for request in requests],
                stations=[request.station for request in requests])
            worst = _worst([response.value for response in ok_measures],
                           expected)
            if not worst <= PARITY_DB:
                problems.append(f"ok measures off measure_aligned by "
                                f"{worst:.3g} dB")
        check.failed = metrics.failed_count + metrics.rejected_count
        return _fail_all(check)

    def close(self, state) -> None:
        pass


class PaperSuite:
    """Every registered experiment, cold then warm against one store."""

    name = "paper_suite"
    speed_exponent = 1.0

    def __init__(self, workdir: Path, names: Optional[List[str]] = None):
        self.workdir = Path(workdir)
        self.names = names

    def sizes(self) -> Dict[str, float]:
        return {"experiments": len(self._specs())}

    def _specs(self):
        specs = REGISTRY.all()
        if self.names is None:
            return specs
        return [spec for spec in specs if spec.name in self.names]

    def setup(self, seed: int) -> SimpleNamespace:
        # The store keys every entry by a digest of the package source;
        # computing it is part of standing a store up.
        code_fingerprint.cache_clear()
        code_fingerprint()
        self.workdir.mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="paper-suite-", dir=self.workdir))
        return SimpleNamespace(seed=seed, root=root, passes=0, first=None,
                               reference=None)

    def _run_all(self, store: ResultStore):
        runner = Runner(store=store)
        if self.names is None:
            return runner.run_all()
        return runner.run_many(self.names)

    def run(self, state):
        state.passes += 1
        directory = state.root / f"pass-{state.passes}"
        cold_store = ResultStore(directory)
        cold = self._run_all(cold_store)
        warm_store = ResultStore(directory)
        before = probe_evaluations()
        started = time.perf_counter()
        warm = self._run_all(warm_store)
        warm_s = time.perf_counter() - started
        return SimpleNamespace(cold=cold, warm=warm, warm_s=warm_s,
                               warm_probe_passes=probe_evaluations() - before,
                               cold_stats=cold_store.stats,
                               warm_stats=warm_store.stats)

    def verify(self, state, outputs) -> PassCheck:
        cold, warm = outputs.cold, outputs.warm
        check = PassCheck(attempted=2 * len(cold), counts={
            "experiments": len(cold),
            "store.bytes": outputs.cold_stats.total_bytes,
            "store.hits": outputs.warm_stats.hits,
            "store.warm_pass_s": outputs.warm_s,
            "store.warm_probe_passes": outputs.warm_probe_passes})
        problems = check.problems
        failed = 0
        if [result.name for result in cold] != [spec.name
                                                for spec in self._specs()]:
            problems.append("run_all did not return every experiment")
            failed = check.attempted
        for index, result in enumerate(cold):
            try:
                result.check()
            except AssertionError as error:
                problems.append(f"{result.name} check: {error}")
                failed += 1
            if (state.first is not None
                    and not result.equal(state.first[index])):
                problems.append(f"{result.name} differs from the first pass")
                failed += 1
        for result, again in zip(cold, warm):
            if not again.equal(result):
                problems.append(f"{result.name} warm payload differs")
                failed += 1
        if outputs.warm_probe_passes != 0:
            problems.append(f"warm pass ran {outputs.warm_probe_passes} "
                            "budget passes")
            failed += len(warm)
        if state.first is None:
            state.first = cold
        check.failed = min(failed, check.attempted)
        return check

    def close(self, state) -> None:
        shutil.rmtree(state.root, ignore_errors=True)


def workloads(workdir: Path) -> Dict[str, object]:
    """The benchmark's workloads by name, at benchmark size."""
    return {workload.name: workload for workload in (
        WorldRetune(), FleetSweep(), ServeStorm(), PaperSuite(workdir))}
