"""Helpers shared by the benchmark modules.

The engine benchmarks all time a scalar reference against a vectorized
path and gate the speedup; the scaffolding lives here so the
``test_bench_*`` modules stay declarative.
"""

import time

from repro.experiments.reporting import format_table

__all__ = [
    "assert_speedup",
    "print_speedup_table",
    "speedup_row",
    "timed",
]


def timed(function, *args, **kwargs):
    """Run ``function`` once; returns ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - start


def speedup_row(label, probe_count, slow_s, fast_s, max_error_db):
    """One standard row of a scalar-vs-vectorized comparison table."""
    return [label, probe_count, slow_s * 1e3, fast_s * 1e3, slow_s / fast_s,
            max_error_db]


def print_speedup_table(title, rows, row_label="sweep", count_label="points",
                        slow_label="scalar loop", fast_label="vectorized"):
    """Print rows built by :func:`speedup_row` with the standard headers."""
    print()
    print(format_table(
        [row_label, count_label, f"{slow_label} (ms)", f"{fast_label} (ms)",
         "speedup (x)", "max |diff| (dB)"],
        rows, precision=3, title=title))


def assert_speedup(rows, min_speedup, tolerance_db=1e-9):
    """Gate every :func:`speedup_row`: fast enough and numerically tight."""
    for row in rows:
        speedup, max_error_db = row[-2], row[-1]
        assert speedup >= min_speedup, row
        assert max_error_db <= tolerance_db, row
