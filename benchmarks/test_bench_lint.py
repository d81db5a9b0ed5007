"""Full-repo lint pass stays fast enough to gate CI.

The ``lint-invariants`` CI job runs ``python -m repro.lint src tests``
on every push, so the whole-tree pass (parse every module once, run all
eight rules, apply the baseline) must stay interactive.  Gated at < 5 s;
the tree lints in about 3 s on a 2-vCPU VM.
"""

from dataclasses import replace
from pathlib import Path

from bench_utils import timed
from repro.experiments.reporting import format_table
from repro.lint import Baseline, LintConfig, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[1]
LINT_BUDGET_S = 5.0


def _full_repo_lint():
    findings = [
        # Baseline entries store repo-relative paths.
        replace(finding, path=Path(finding.path)
                .relative_to(REPO_ROOT).as_posix())
        for finding in lint_paths([REPO_ROOT / "src", REPO_ROOT / "tests"],
                                  LintConfig())
    ]
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    return findings, baseline.filter(findings)


def test_bench_lint_full_repo():
    (findings, result), elapsed = timed(_full_repo_lint)

    print()
    print(format_table(
        ["quantity", "value"],
        [
            ["full-repo lint (s)", elapsed],
            ["budget (s)", LINT_BUDGET_S],
            ["total findings", len(findings)],
            ["baselined", result.suppressed_count],
            ["new findings", len(result.new_findings)],
        ],
        precision=3, title="repro.lint - full-repo invariant pass"))

    assert elapsed < LINT_BUDGET_S, \
        f"full-repo lint took {elapsed:.2f}s (budget {LINT_BUDGET_S}s)"
    assert result.new_findings == []
