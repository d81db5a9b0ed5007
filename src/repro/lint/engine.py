"""Lint engine: file discovery, role derivation, rule execution.

The engine turns paths into :class:`~repro.lint.findings.Finding`
lists: it walks directories for ``*.py`` files (skipping the default
excludes — the lint fixture corpus is intentionally full of
violations), derives each file's roles, parses it once, runs every
selected rule over the AST, and applies per-line suppressions.  A
suppression without a justification is converted into an ``RPR000``
finding rather than honoured silently.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.lint import rules as _rules  # noqa: F401 - registers the rules
from repro.lint.base import (
    FRAMEWORK_RULE_ID,
    LintContext,
    RULES,
    parse_role_pragma,
    parse_suppressions,
)
from repro.lint.findings import Finding, Severity

#: Directory fragments the recursive walker skips by default.  The lint
#: fixture corpus deliberately violates every rule; explicitly-passed
#: files are never excluded.
DEFAULT_EXCLUDES: Tuple[str, ...] = ("tests/lint/fixtures",
                                     "__pycache__", ".git")

#: Path fragments that mark the vectorized physics kernels.
_HOT_FRAGMENTS = ("repro/channel/", "repro/metasurface/", "repro/core/")


@dataclass(frozen=True)
class LintConfig:
    """Engine configuration (rule selection and walker excludes)."""

    select: Optional[FrozenSet[str]] = None
    excludes: Tuple[str, ...] = DEFAULT_EXCLUDES

    def selected_rules(self) -> Tuple[str, ...]:
        """Rule ids to run, in sorted order."""
        if self.select is None:
            return tuple(sorted(RULES))
        unknown = self.select - set(RULES)
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {sorted(unknown)}; "
                f"known rules: {sorted(RULES)}")
        return tuple(sorted(self.select))


def derive_roles(path: str) -> FrozenSet[str]:
    """Roles implied by a file's path (see :mod:`repro.lint.base`)."""
    posix = Path(path).as_posix()
    roles = set()
    parts = Path(posix).parts
    if "tests" in parts or Path(posix).name.startswith("test_"):
        roles.add("test")
    else:
        roles.add("src")
    if any(fragment in posix for fragment in _HOT_FRAGMENTS):
        roles.add("hot")
    if posix.endswith("repro/units.py"):
        roles.add("units")
    if "repro/faults/" in posix:
        roles.add("faults")
    if "repro/world/" in posix:
        roles.add("world")
    return frozenset(roles)


def lint_source(source: str, path: str,
                config: Optional[LintConfig] = None) -> List[Finding]:
    """Lint one module's source text and return sorted findings."""
    config = config or LintConfig()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [Finding(
            rule=FRAMEWORK_RULE_ID, severity=Severity.ERROR, path=path,
            line=error.lineno or 1, col=(error.offset or 1) - 1,
            message=f"cannot parse file: {error.msg}")]
    pragma_roles = parse_role_pragma(source)
    roles = pragma_roles if pragma_roles is not None else derive_roles(path)
    context = LintContext(path=path, source=source, tree=tree, roles=roles)

    findings: List[Finding] = []
    for rule_id in config.selected_rules():
        rule_class = RULES[rule_id]
        if rule_class.applies_to(context):
            findings.extend(rule_class(context).run())

    suppressions = parse_suppressions(source)
    kept: List[Finding] = []
    for finding in findings:
        covering = [s for s in suppressions if s.covers(finding)]
        if not covering:
            kept.append(finding)
    for suppression in suppressions:
        if not suppression.reason:
            kept.append(Finding(
                rule=FRAMEWORK_RULE_ID, severity=Severity.ERROR, path=path,
                line=suppression.line, col=0,
                message="suppression without justification; append "
                        "'-- <reason>'"))
    return sorted(kept, key=Finding.sort_key)


def lint_file(path: Path,
              config: Optional[LintConfig] = None) -> List[Finding]:
    """Lint one file on disk."""
    source = path.read_text(encoding="utf-8")
    return lint_source(source, path.as_posix(), config)


def iter_python_files(paths: Sequence[Path],
                      excludes: Iterable[str] = DEFAULT_EXCLUDES
                      ) -> List[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files.

    Directories are walked recursively with ``excludes`` applied (path
    fragments, POSIX separators); explicitly-passed files are always
    linted, excluded or not.
    """
    exclude_fragments = tuple(excludes)
    files: List[Path] = []
    for path in paths:
        if path.is_file():
            files.append(path)
            continue
        for candidate in sorted(path.rglob("*.py")):
            posix = candidate.as_posix()
            if any(fragment in posix for fragment in exclude_fragments):
                continue
            files.append(candidate)
    return files


def lint_paths(paths: Sequence[Path],
               config: Optional[LintConfig] = None) -> List[Finding]:
    """Lint every Python file under ``paths`` and return sorted findings."""
    config = config or LintConfig()
    findings: List[Finding] = []
    for file_path in iter_python_files(paths, config.excludes):
        findings.extend(lint_file(file_path, config))
    return sorted(findings, key=Finding.sort_key)


__all__ = [
    "DEFAULT_EXCLUDES",
    "LintConfig",
    "derive_roles",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
]
