"""Checker framework: lint context, rule base class and the rule registry.

A rule is an :class:`ast.NodeVisitor` subclass with class-level
metadata (``rule_id`` / ``title`` / ``default_severity`` / a rationale
docstring) that walks one module's AST and collects
:class:`~repro.lint.findings.Finding` records.  Rules are registered
with :func:`register_rule` and instantiated per file by the engine.

File *roles* make rules applicable by module kind rather than by
hard-coded paths: the engine derives roles from the path (``test`` for
test files, ``hot`` for the vectorized physics kernels under
``channel/`` / ``metasurface/`` / ``core/``, ``units`` for
``repro/units.py``, ``faults`` and ``world`` for those packages) and a
fixture file can claim any role explicitly with a pragma comment::

    # repro-lint: role=hot,units

When a role pragma is present it *replaces* the derived roles, so test
fixtures exercise exactly the rule paths they mean to.

Suppressions are per-line comments that must carry a justification::

    x = legacy_db + power_mw  # repro-lint: disable=RPR001 -- vendored formula

A suppression without the ``-- reason`` tail is itself reported (rule
``RPR000``): silencing an invariant is allowed, doing so without saying
why is not.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import ClassVar, Dict, FrozenSet, List, Optional, Tuple, Type

from repro.lint.findings import Finding, Severity

#: Rule id of findings emitted by the framework itself (parse errors,
#: justification-less suppressions).
FRAMEWORK_RULE_ID = "RPR000"

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9*,\s]+?)"
    r"(?:\s*--\s*(?P<reason>.+?))?\s*$")
_ROLE_RE = re.compile(r"#\s*repro-lint:\s*role=(?P<roles>[A-Za-z0-9,\s-]+)")


@dataclass(frozen=True)
class Suppression:
    """One ``# repro-lint: disable=...`` comment.

    ``rules`` is the set of silenced rule ids (``{"*"}`` silences every
    rule on the line); ``reason`` is the mandatory justification tail.
    """

    line: int
    rules: FrozenSet[str]
    reason: str

    def covers(self, finding: Finding) -> bool:
        """Whether this suppression silences ``finding``."""
        if finding.line != self.line:
            return False
        return "*" in self.rules or finding.rule in self.rules


def parse_suppressions(source: str) -> List[Suppression]:
    """Extract every suppression comment of a module, line by line."""
    suppressions: List[Suppression] = []
    for number, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = frozenset(part.strip() for part in
                          match.group("rules").split(",") if part.strip())
        reason = (match.group("reason") or "").strip()
        suppressions.append(Suppression(line=number, rules=rules,
                                        reason=reason))
    return suppressions


def parse_role_pragma(source: str,
                      scan_lines: int = 15) -> Optional[FrozenSet[str]]:
    """The ``# repro-lint: role=...`` pragma of a module, if any.

    Only the first ``scan_lines`` lines are scanned — the pragma is a
    file-level declaration, not an inline annotation.
    """
    for text in source.splitlines()[:scan_lines]:
        match = _ROLE_RE.search(text)
        if match is not None:
            return frozenset(part.strip() for part in
                             match.group("roles").split(",") if part.strip())
    return None


@dataclass(frozen=True)
class LintContext:
    """Everything a rule may consult about the file under analysis."""

    path: str
    source: str
    tree: ast.Module
    roles: FrozenSet[str]

    def has_role(self, role: str) -> bool:
        """Whether the file carries the given role."""
        return role in self.roles


class Rule(ast.NodeVisitor):
    """Base class for one lint rule.

    Subclasses set the class-level metadata, implement ``visit_*``
    methods and call :meth:`report` for each violation.  The class
    docstring doubles as the rule's rationale in ``--explain`` output
    and the README catalog.
    """

    #: Unique identifier, ``RPR`` + three digits.
    rule_id: ClassVar[str] = ""
    #: One-line summary shown by ``--list-rules``.
    title: ClassVar[str] = ""
    #: Severity attached to this rule's findings by default.
    default_severity: ClassVar[Severity] = Severity.ERROR

    def __init__(self, context: LintContext) -> None:
        self.context = context
        self.findings: List[Finding] = []

    @classmethod
    def applies_to(cls, context: LintContext) -> bool:
        """Whether the rule runs on this file at all (default: yes)."""
        return True

    @classmethod
    def rationale(cls) -> str:
        """The rule's long-form rationale (its class docstring)."""
        return (cls.__doc__ or "").strip()

    def report(self, node: ast.AST, message: str, suggestion: str = "",
               severity: Optional[Severity] = None) -> None:
        """Record one finding anchored at ``node``."""
        self.findings.append(Finding(
            rule=self.rule_id,
            severity=self.default_severity if severity is None else severity,
            path=self.context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            suggestion=suggestion,
        ))

    def run(self) -> List[Finding]:
        """Walk the module and return this rule's findings."""
        self.visit(self.context.tree)
        return self.findings


#: All registered rules, by id, in registration order.
RULES: Dict[str, Type[Rule]] = {}


def register_rule(rule: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule.rule_id:
        raise ValueError(f"rule {rule.__name__} declares no rule_id")
    if rule.rule_id in RULES:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    RULES[rule.rule_id] = rule
    return rule


def rule_ids() -> Tuple[str, ...]:
    """Registered rule ids, sorted."""
    return tuple(sorted(RULES))


# --------------------------------------------------------------------- #
# Small AST helpers shared by several rules
# --------------------------------------------------------------------- #
def call_name(node: ast.Call) -> str:
    """The bare callee name of a call (``f`` for ``f(...)`` and
    ``obj.f(...)``), or ``""`` when the callee is not a simple name."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def dotted_name(node: ast.expr) -> str:
    """``a.b.c`` for nested attribute access on names, else ``""``."""
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return ""
    parts.append(current.id)
    return ".".join(reversed(parts))


def is_constant_number(node: ast.expr, *values: float) -> bool:
    """Whether ``node`` is a numeric constant equal to one of ``values``."""
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)
            and float(node.value) in values)


__all__ = [
    "FRAMEWORK_RULE_ID",
    "LintContext",
    "RULES",
    "Rule",
    "Suppression",
    "call_name",
    "dotted_name",
    "is_constant_number",
    "parse_role_pragma",
    "parse_suppressions",
    "register_rule",
    "rule_ids",
]
