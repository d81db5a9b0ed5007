"""Benchmark entry point: one workload, one run, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload world_retune --seed 2021 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics (``pass_s``,
``peak_mem_mb``, ``setup_s``); ``--trace 1`` prints the per-layer
metrics and writes the spans to ``.perfbench_out/``.  The last stdout
line is the result object; the line before it is the run-table row,
which is also appended to ``.perfbench_out/run_table.jsonl``.
Workload names and metric units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".perfbench_out"
SCRATCH = ROOT / ".perfbench_tmp"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_reference(workload, seed: int):
    """The recorded outputs for this workload, seed and sizes, if any."""
    if not REFERENCE.is_file():
        return None
    entry = json.loads(REFERENCE.read_text()).get(workload.name, {}).get(
        str(seed))
    if entry is None or entry["sizes"] != workload.sizes():
        return None
    return entry["outputs"]


def main(argv=None) -> int:
    benchmark = json.loads(BENCHMARK.read_text())
    args = parse_args(argv, [entry["name"]
                             for entry in benchmark["workloads"]])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # One process drives all load: cap BLAS pools before NumPy loads.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import perf_harness
    from perf_workloads import workloads

    workload = workloads(SCRATCH)[args.workload]
    reference = load_reference(workload, args.seed)
    units = {entry["name"]: entry["unit"] for entry in
             benchmark["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        metrics, tally, passes, spans = perf_harness.run_traced(
            workload, args.seed, args.seconds, reference, list(units))
    else:
        metrics, tally, passes = perf_harness.run_untraced(
            workload, args.seed, args.seconds, reference)
        spans = None
    row = perf_harness.run_row(workload, args.seed, bool(args.trace),
                               args.seconds, ROOT, metrics, tally, passes)
    OUT.mkdir(exist_ok=True)
    with open(OUT / "run_table.jsonl", "a", encoding="utf-8") as table:
        table.write(json.dumps(row) + "\n")
    if spans is not None:
        name = f"spans-{args.workload}-seed{args.seed}.json"
        (OUT / name).write_text(json.dumps(spans))
    for problem in tally.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(row))
    print(perf_harness.result_line(metrics, units, tally))
    return 0


if __name__ == "__main__":
    sys.exit(main())
