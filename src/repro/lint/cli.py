"""``python -m repro.lint`` — the invariant checker's command line.

Usage::

    python -m repro.lint [paths ...] [--select RPR001,RPR006] [--json]
                         [--baseline FILE | --no-baseline]
                         [--write-baseline] [--strict-baseline]
                         [--list-rules] [--explain RULE]

Exit status: 0 when no *new* findings remain (baselined and suppressed
findings don't fail the build), 1 on new findings (or, with
``--strict-baseline``, on expired baseline entries), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, TextIO

from repro.lint.base import RULES
from repro.lint.baseline import (
    Baseline,
    BaselineError,
    DEFAULT_BASELINE_NAME,
    FilterResult,
)
from repro.lint.engine import LintConfig, lint_paths
from repro.lint.findings import Finding

_DEFAULT_PATHS = ("src", "tests")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based invariant checker for the repro codebase "
                    "(units discipline, caching contracts, sweep-axis "
                    "correctness, registry hygiene, numpy hygiene).")
    parser.add_argument(
        "paths", nargs="*", default=list(_DEFAULT_PATHS),
        help="files or directories to lint (default: src tests)")
    parser.add_argument(
        "--select", action="append", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--json", action="store_true",
        help="emit findings as JSON on stdout")
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=f"baseline file (default: {DEFAULT_BASELINE_NAME} when it "
             "exists)")
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to the baseline file and exit 0")
    parser.add_argument(
        "--strict-baseline", action="store_true",
        help="fail (exit 1) when baseline entries have expired")
    parser.add_argument(
        "--no-default-excludes", action="store_true",
        help="also lint the fixture corpus and other default excludes")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit")
    parser.add_argument(
        "--explain", default=None, metavar="RULE",
        help="print one rule's rationale and exit")
    return parser


def _parse_select(values: Optional[List[str]]) -> Optional[frozenset[str]]:
    if not values:
        return None
    rules = {part.strip() for value in values
             for part in value.split(",") if part.strip()}
    return frozenset(rules) if rules else None


def _print_rules(stream: TextIO) -> None:
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        stream.write(f"{rule_id}  [{rule.default_severity.value:7s}] "
                     f"{rule.title}\n")


def _explain(rule_id: str, stream: TextIO) -> int:
    rule = RULES.get(rule_id)
    if rule is None:
        stream.write(f"unknown rule {rule_id!r}; known rules: "
                     f"{', '.join(sorted(RULES))}\n")
        return 2
    stream.write(f"{rule_id} — {rule.title}\n\n{rule.rationale()}\n")
    return 0


def _emit_json(result: FilterResult, suppressed: int,
               stream: TextIO) -> None:
    payload = {
        "version": 1,
        "new_findings": [finding.to_dict()
                         for finding in result.new_findings],
        "baselined_count": suppressed,
        "expired_baseline": [
            {"rule": entry.rule, "path": entry.path,
             "message": entry.message, "count": entry.count,
             "justification": entry.justification}
            for entry in result.expired
        ],
    }
    stream.write(json.dumps(payload, indent=2) + "\n")


def _emit_text(result: FilterResult, suppressed: int, total: int,
               stream: TextIO) -> None:
    for finding in result.new_findings:
        stream.write(finding.render() + "\n")
    for entry in result.expired:
        stream.write(f"expired baseline entry: {entry.rule} at "
                     f"{entry.path} ({entry.message!r}) — delete it\n")
    summary = (f"{len(result.new_findings)} new finding(s), "
               f"{suppressed} baselined, "
               f"{len(result.expired)} expired baseline entr(ies), "
               f"{total} total")
    stream.write(summary + "\n")


def main(argv: Optional[Sequence[str]] = None,
         stdout: Optional[TextIO] = None,
         stderr: Optional[TextIO] = None) -> int:
    """Entry point; returns the process exit status."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as error:
        return int(error.code or 0)

    if args.list_rules:
        _print_rules(out)
        return 0
    if args.explain is not None:
        return _explain(args.explain, out)

    try:
        config = LintConfig(
            select=_parse_select(args.select),
            excludes=() if args.no_default_excludes else
            LintConfig().excludes)
        config.selected_rules()  # validate --select early
    except ValueError as error:
        err.write(f"error: {error}\n")
        return 2

    paths = [Path(path) for path in args.paths]
    missing = [path for path in paths if not path.exists()]
    if missing:
        err.write("error: no such file or directory: "
                  f"{', '.join(str(path) for path in missing)}\n")
        return 2

    findings: List[Finding] = lint_paths(paths, config)

    baseline_path = Path(args.baseline) if args.baseline \
        else Path(DEFAULT_BASELINE_NAME)

    if args.write_baseline:
        previous: Optional[Baseline] = None
        if baseline_path.exists():
            try:
                previous = Baseline.load(baseline_path)
            except BaselineError:
                previous = None
        Baseline.from_findings(findings, previous=previous).save(
            baseline_path)
        out.write(f"wrote {len(findings)} finding(s) to "
                  f"{baseline_path}\n")
        return 0

    baseline = Baseline()
    if not args.no_baseline and baseline_path.exists():
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as error:
            err.write(f"error: {error}\n")
            return 2
    result = baseline.filter(findings)

    if args.json:
        _emit_json(result, result.suppressed_count, out)
    else:
        _emit_text(result, result.suppressed_count, len(findings), out)

    if result.new_findings:
        return 1
    if args.strict_baseline and result.expired:
        return 1
    return 0


__all__ = ["main"]
