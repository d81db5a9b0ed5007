"""``repro.lint`` — AST-based invariant checker for the repro codebase.

The reproduction rests on a handful of load-bearing invariants that
runtime tests cannot police exhaustively: dB-family and linear
quantities must never be combined directly (RPR001), frozen
configurations stay frozen and links are built once (RPR002), the hot
physics modules stay vectorized (RPR005), time and retries stay on the
virtual clocks of the fault and serving planes (RPR006), and
randomness flows from explicit seeded generators (RPR008).  This
package machine-checks them:

* :mod:`repro.lint.findings` — the :class:`Finding` record.
* :mod:`repro.lint.base` — rule base class, registry, suppressions.
* :mod:`repro.lint.rules` — the five domain rules.
* :mod:`repro.lint.engine` — file discovery and rule execution.
* :mod:`repro.lint.baseline` — acknowledged findings with
  justifications.
* :mod:`repro.lint.cli` — ``python -m repro.lint``.

See the README's "Static analysis & invariants" section for the rule
catalog, the naming grammar and the suppression syntax.
"""

from __future__ import annotations

from repro.lint.base import LintContext, RULES, Rule, register_rule
from repro.lint.baseline import Baseline, BaselineEntry, BaselineError
from repro.lint.cli import main
from repro.lint.engine import (
    DEFAULT_EXCLUDES,
    LintConfig,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.findings import Finding, Severity

__all__ = [
    "Baseline",
    "BaselineEntry",
    "BaselineError",
    "DEFAULT_EXCLUDES",
    "Finding",
    "LintConfig",
    "LintContext",
    "RULES",
    "Rule",
    "Severity",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
    "register_rule",
]
