"""Command-line front end for the experiment registry.

``python -m repro.experiments`` drives the whole reproduction suite:

* ``list [--tag TAG]``            — enumerate registered experiments.
* ``describe NAME``               — parameter schema, tags, coverage.
* ``run NAME [--set k=v] [--smoke] [--json PATH] [--check]`` — run one
  experiment, print its summary, optionally archive the serialized
  :class:`~repro.experiments.runner.ExperimentResult`.
* ``run-all [--tag TAG] [--smoke] [--workers N] [--store DIR]
  [--json-dir DIR] [--check]`` — run a tag's worth (or everything)
  with a live claimed/done/ETA progress line; ``--workers`` shards the
  suite across a multiprocess pool, ``--store`` attaches the
  persistent result store so warm re-runs skip anything already
  computed.
* ``coverage [--json PATH]``      — which scenarios,
  :data:`~repro.channel.grid.SWEEP_AXES` and ``repro`` modules the
  registered suite exercises, and what remains uncovered.
* ``serve [--stations N] [--rate RPS] [--duration S] [--window S]
  [--arrival KIND] [--seed N] [--json PATH]`` — one ad-hoc
  :class:`~repro.serve.service.SurfaceService` run: generate an
  open-loop trace, serve it on the virtual clock, print the service
  metrics (throughput, latency percentiles, batch occupancy, queue
  depth, shed counts).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.channel.grid import SWEEP_AXES
from repro.experiments.parallel import ProgressReporter
from repro.experiments.registry import (
    MODULE_NAMES,
    REGISTRY,
    SCENARIO_NAMES,
    ExperimentRegistry,
    ParameterError,
    UnknownExperimentError,
)
from repro.experiments.reporting import format_table
from repro.experiments.runner import Runner


def _parse_overrides(spec, assignments: Sequence[str]) -> Dict[str, object]:
    overrides: Dict[str, object] = {}
    for assignment in assignments:
        name, separator, text = assignment.partition("=")
        if not separator:
            raise ParameterError(
                f"malformed --set {assignment!r}; expected name=value")
        overrides[name.strip()] = spec.param(name.strip()).parse(text)
    return overrides


def _cmd_list(registry: ExperimentRegistry, tag: Optional[str]) -> int:
    specs = registry.all(tag)
    rows = [[spec.name, ", ".join(spec.tags), len(spec.params), spec.title]
            for spec in specs]
    suffix = f" tagged {tag!r}" if tag else ""
    print(format_table(["name", "tags", "params", "title"], rows,
                       title=f"{len(specs)} registered experiments{suffix}"))
    return 0


def _cmd_describe(registry: ExperimentRegistry, name: str) -> int:
    print(registry.get(name).describe())
    return 0


def _cmd_run(registry: ExperimentRegistry, name: str,
             assignments: Sequence[str], smoke: bool,
             json_path: Optional[str], check: bool, quiet: bool) -> int:
    runner = Runner(registry)
    spec = registry.get(name)
    result = runner.run(name, smoke=smoke,
                        **_parse_overrides(spec, assignments))
    if not quiet:
        print(result.summary())
    if json_path:
        Path(json_path).write_text(result.to_json(indent=2))
        print(f"\nwrote {json_path}")
    if check:
        try:
            result.check()
        except AssertionError as error:
            detail = f" ({error})" if str(error) else ""
            print(f"check FAILED: {name}{detail}", file=sys.stderr)
            return 1
        print(f"check passed: {name}")
    return 0


def _cmd_run_all(registry: ExperimentRegistry, tag: Optional[str],
                 smoke: bool, json_dir: Optional[str], check: bool,
                 workers: int, store_dir: Optional[str]) -> int:
    runner = Runner(registry, store=store_dir)
    specs = registry.all(tag)
    if not specs:
        print(f"no experiments tagged {tag!r}")
        return 1
    directory = Path(json_dir) if json_dir else None
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
    progress = ProgressReporter(total=len(specs), label="run-all")
    start = time.perf_counter()
    results = runner.run_all(tag=tag, smoke=smoke, workers=workers,
                             progress=progress)
    elapsed = time.perf_counter() - start
    failures: List[str] = []
    for result in results:
        if check:
            try:
                result.check()
            except AssertionError as error:
                failures.append(result.name)
                detail = f" ({error})" if str(error) else ""
                print(f"CHECK FAILED: {result.name}{detail}")
        if directory is not None:
            (directory / f"{result.name}.json").write_text(
                result.to_json(indent=2))
    mode = "smoke" if smoke else "full"
    pool = f", {workers} workers" if workers and workers > 1 else ""
    print(f"\nran {len(specs)} experiments ({mode} parameters{pool}) "
          f"in {elapsed:.2f}s: {progress.computed} computed, "
          f"{progress.cached} cached"
          + (f"; archived to {directory}" if directory else ""))
    if runner.store is not None:
        stats = runner.store.stats
        print(f"store {runner.store.directory}: {stats.entries} entries, "
              f"{stats.hits} hits, {stats.writes} writes, "
              f"{stats.corrupt} corrupt")
    if failures:
        print(f"failed checks: {', '.join(failures)}")
        return 1
    return 0


def coverage_report(registry: ExperimentRegistry) -> Dict[str, object]:
    """Aggregate which scenarios/axes/modules the suite exercises."""
    def exercised(universe, attribute):
        return {item: sorted(spec.name for spec in registry
                             if item in getattr(spec, attribute))
                for item in universe}

    scenarios = exercised(SCENARIO_NAMES, "scenarios")
    axes = exercised(SWEEP_AXES, "axes")
    modules = exercised(MODULE_NAMES, "modules")
    return {
        "experiment_count": len(registry),
        "tags": {tag: len(registry.all(tag)) for tag in registry.tags()},
        "scenarios": scenarios,
        "axes": axes,
        "modules": modules,
        "uncovered": {
            "scenarios": sorted(k for k, v in scenarios.items() if not v),
            "axes": sorted(k for k, v in axes.items() if not v),
            "modules": sorted(k for k, v in modules.items() if not v),
        },
    }


def format_coverage(report: Dict[str, object]) -> str:
    """Render :func:`coverage_report` as the CLI's text tables."""
    blocks = [f"{report['experiment_count']} experiments; tags: " +
              ", ".join(f"{tag} ({count})"
                        for tag, count in report["tags"].items())]
    for title, key in (("scenario coverage", "scenarios"),
                       ("sweep-axis coverage", "axes"),
                       ("module coverage", "modules")):
        rows = [[name, len(users), ", ".join(users) if users else "—"]
                for name, users in report[key].items()]
        blocks.append(format_table([key[:-1] if key != "axes" else "axis",
                                    "experiments", "exercised by"],
                                   rows, title=title))
    uncovered = report["uncovered"]
    missing = [f"{kind}: {', '.join(items)}"
               for kind, items in uncovered.items() if items]
    blocks.append("uncovered: " + ("; ".join(missing) if missing else
                                   "nothing — full coverage"))
    return "\n\n".join(blocks)


def _cmd_serve(stations: int, rate_rps: float, duration_s: float,
               window_s: float, arrival: str, seed: int,
               queue_capacity: int, max_batch: int,
               json_path: Optional[str]) -> int:
    from repro.api.fleet import FleetSession, FleetSpec
    from repro.serve import LoadProfile, ServiceConfig, generate_trace
    from repro.serve import serve_trace

    spec = FleetSpec.office(station_count=stations)
    try:
        profile = LoadProfile(rate_rps=rate_rps, duration_s=duration_s,
                              arrival=arrival, seed=seed)
        config = ServiceConfig(batch_window_s=window_s,
                               queue_capacity=queue_capacity,
                               max_batch=max_batch)
    except ValueError as error:
        raise ParameterError(str(error)) from None
    trace = generate_trace(profile, spec.station_names)
    result = serve_trace(FleetSession(spec), trace, config)
    metrics = result.metrics
    row = metrics.row()
    print(format_table(
        ["metric", "value"], sorted(row.items()), precision=4,
        title=f"serve — {len(trace)} requests, {stations} stations, "
              f"{window_s * 1e3:g} ms window ({arrival} arrivals at "
              f"{rate_rps:g} rps for {duration_s:g} s)"))
    if json_path:
        Path(json_path).write_text(json.dumps({
            "profile": {"stations": stations, "rate_rps": rate_rps,
                        "duration_s": duration_s, "arrival": arrival,
                        "seed": seed},
            "config": {"batch_window_s": window_s,
                       "queue_capacity": queue_capacity,
                       "max_batch": max_batch},
            "trace_digest": result.trace_digest,
            "metrics": row,
        }, indent=2))
        print(f"\nwrote {json_path}")
    return 0


def _cmd_world(stations: int, moving: int, rotating: int,
               duration_s: float, time_step_s: float, seed: int,
               json_path: Optional[str]) -> int:
    from repro.api.fleet import FleetSpec
    from repro.world import MobilityTrace, RotationTrace, WorldTimeline

    spec = FleetSpec.office(station_count=stations)
    names = spec.station_names
    mobility = {name: MobilityTrace.random_waypoint(
        seed, name, duration_s=duration_s) for name in names[:moving]}
    rotation = {name: RotationTrace.random_walk(
        seed, name, duration_s=duration_s)
        for name in (names[-rotating:] if rotating else ())}
    timeline = WorldTimeline(spec, mobility=mobility, rotation=rotation,
                             duration_s=duration_s,
                             time_step_s=time_step_s)
    report = timeline.run()
    rows = [[time_s, float(power)] for time_s, power in zip(
        report.times_s, report.epoch_mean_power_dbm)]
    print(format_table(
        ["time (s)", "fleet mean power (dBm)"], rows, precision=3,
        title=f"world — {stations} stations over {timeline.epoch_count} "
              f"epochs ({moving} moving, {rotating} rotating); mean gain "
              f"{report.mean_gain_db:.2f} dB, worst "
              f"{report.worst_gain_db:.2f} dB"))
    if json_path:
        Path(json_path).write_text(json.dumps({
            "spec": {"stations": stations, "moving": moving,
                     "rotating": rotating, "duration_s": duration_s,
                     "time_step_s": time_step_s, "seed": seed},
            "mean_gain_db": report.mean_gain_db,
            "worst_gain_db": report.worst_gain_db,
            "epoch_mean_power_dbm":
                [float(p) for p in report.epoch_mean_power_dbm],
            "trace_digests": [list(pair) for pair in report.trace_digests],
        }, indent=2))
        print(f"\nwrote {json_path}")
    return 0


def _cmd_coverage(registry: ExperimentRegistry,
                  json_path: Optional[str]) -> int:
    report = coverage_report(registry)
    print(format_coverage(report))
    if json_path:
        Path(json_path).write_text(json.dumps(report, indent=2))
        print(f"\nwrote {json_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.experiments`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper-reproduction experiment suite.")
    commands = parser.add_subparsers(dest="command", required=True)

    list_cmd = commands.add_parser("list", help="enumerate experiments")
    list_cmd.add_argument("--tag", default=None,
                          help="only experiments with this tag")

    describe_cmd = commands.add_parser("describe",
                                       help="show one experiment's schema")
    describe_cmd.add_argument("name")

    run_cmd = commands.add_parser("run", help="run one experiment")
    run_cmd.add_argument("name")
    run_cmd.add_argument("--set", dest="assignments", action="append",
                         default=[], metavar="NAME=VALUE",
                         help="override a parameter (repeatable)")
    run_cmd.add_argument("--smoke", action="store_true",
                         help="apply the spec's fast smoke profile first")
    run_cmd.add_argument("--json", dest="json_path", default=None,
                         help="archive the serialized result here")
    run_cmd.add_argument("--check", action="store_true",
                         help="run the spec's shape assertions")
    run_cmd.add_argument("--quiet", action="store_true",
                         help="skip the summary rendering")

    run_all_cmd = commands.add_parser("run-all",
                                      help="run every (tagged) experiment")
    run_all_cmd.add_argument("--tag", default=None,
                             help="only experiments with this tag")
    run_all_cmd.add_argument("--smoke", action="store_true",
                             help="apply each spec's smoke profile")
    run_all_cmd.add_argument("--json-dir", dest="json_dir", default=None,
                             help="archive one JSON result per experiment")
    run_all_cmd.add_argument("--check", action="store_true",
                             help="run every spec's shape assertions")
    run_all_cmd.add_argument("--workers", type=int, default=0,
                             help="shard across N worker processes "
                                  "(0/1 = serial)")
    run_all_cmd.add_argument("--store", dest="store_dir", default=None,
                             help="persistent result-store directory; "
                                  "already-computed runs are skipped")

    coverage_cmd = commands.add_parser(
        "coverage", help="scenario/axis/module coverage of the suite")
    coverage_cmd.add_argument("--json", dest="json_path", default=None,
                              help="write the machine-readable report here")

    serve_cmd = commands.add_parser(
        "serve", help="one ad-hoc surface-service run under open-loop load")
    serve_cmd.add_argument("--stations", type=int, default=8,
                           help="fleet size (office deployment)")
    serve_cmd.add_argument("--rate", dest="rate_rps", type=float,
                           default=300.0, help="aggregate arrival rate (rps)")
    serve_cmd.add_argument("--duration", dest="duration_s", type=float,
                           default=1.0, help="trace duration (virtual s)")
    serve_cmd.add_argument("--window", dest="window_s", type=float,
                           default=0.01, help="coalescing window (s)")
    serve_cmd.add_argument("--arrival", default="poisson",
                           choices=("poisson", "uniform", "burst"),
                           help="arrival process")
    serve_cmd.add_argument("--seed", type=int, default=2021,
                           help="load-generator seed")
    serve_cmd.add_argument("--capacity", dest="queue_capacity", type=int,
                           default=64, help="admission-control queue bound")
    serve_cmd.add_argument("--max-batch", dest="max_batch", type=int,
                           default=32, help="most requests per window")
    serve_cmd.add_argument("--json", dest="json_path", default=None,
                           help="write the metrics record here")

    world_cmd = commands.add_parser(
        "world", help="one ad-hoc trace-driven dynamic-world fleet run")
    world_cmd.add_argument("--stations", type=int, default=6,
                           help="fleet size (office deployment)")
    world_cmd.add_argument("--moving", type=int, default=3,
                           help="stations given a mobility trace")
    world_cmd.add_argument("--rotating", type=int, default=2,
                           help="stations given a rotation trace")
    world_cmd.add_argument("--duration", dest="duration_s", type=float,
                           default=10.0, help="timeline span (s)")
    world_cmd.add_argument("--step", dest="time_step_s", type=float,
                           default=0.5, help="epoch spacing (s)")
    world_cmd.add_argument("--seed", type=int, default=2021,
                           help="trace-stream seed")
    world_cmd.add_argument("--json", dest="json_path", default=None,
                           help="write the timeline record here")
    return parser


def main(argv: Optional[Sequence[str]] = None,
         registry: Optional[ExperimentRegistry] = None) -> int:
    """CLI entry point; returns the process exit code."""
    registry = registry if registry is not None else REGISTRY
    arguments = build_parser().parse_args(argv)
    try:
        if arguments.command == "list":
            return _cmd_list(registry, arguments.tag)
        if arguments.command == "describe":
            return _cmd_describe(registry, arguments.name)
        if arguments.command == "run":
            return _cmd_run(registry, arguments.name, arguments.assignments,
                            arguments.smoke, arguments.json_path,
                            arguments.check, arguments.quiet)
        if arguments.command == "run-all":
            return _cmd_run_all(registry, arguments.tag, arguments.smoke,
                                arguments.json_dir, arguments.check,
                                arguments.workers, arguments.store_dir)
        if arguments.command == "serve":
            return _cmd_serve(arguments.stations, arguments.rate_rps,
                              arguments.duration_s, arguments.window_s,
                              arguments.arrival, arguments.seed,
                              arguments.queue_capacity, arguments.max_batch,
                              arguments.json_path)
        if arguments.command == "world":
            return _cmd_world(arguments.stations, arguments.moving,
                              arguments.rotating, arguments.duration_s,
                              arguments.time_step_s, arguments.seed,
                              arguments.json_path)
        return _cmd_coverage(registry, arguments.json_path)
    except (ParameterError, UnknownExperimentError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


__all__ = ["build_parser", "coverage_report", "format_coverage", "main"]
