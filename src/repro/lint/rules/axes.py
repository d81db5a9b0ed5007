"""RPR003 — sweep-axis string literals must name real axes."""

from __future__ import annotations

import ast
import functools
from typing import ClassVar, Tuple

from repro.lint.base import Rule, call_name, dotted_name, register_rule
from repro.lint.findings import Severity

#: Callables whose ``axis`` argument (keyword or an early positional
#: string) must be a member of ``SWEEP_AXES``.
AXIS_CALLEES = frozenset({
    "multi_axis_sweep",
})

#: How many leading positional arguments of an axis callee may carry
#: the axis literal (`self`-shifted methods put it at index 0 or 1).
_POSITIONAL_SCAN = 3

#: Registration surfaces whose ``axes=`` keyword must list real axes.
_REGISTRY_CALLEES = frozenset({"experiment", "ExperimentSpec"})


@functools.lru_cache(maxsize=1)
def sweep_axes() -> Tuple[str, ...]:
    """The real ``SWEEP_AXES``, resolved by importing the engine.

    Importing :mod:`repro.channel.grid` (rather than keeping a copy
    here) means adding a sweep axis keeps this rule current
    automatically.
    """
    from repro.channel.grid import SWEEP_AXES
    return tuple(SWEEP_AXES)


@functools.lru_cache(maxsize=1)
def grid_axes() -> Tuple[str, ...]:
    """The full axis vocabulary (voltages + sweep axes)."""
    from repro.channel.grid import GRID_AXES
    return tuple(GRID_AXES)


#: Literals the comparison checks additionally accept: modules like
#: :mod:`repro.metasurface.layers` reuse ``axis``-named variables for
#: the *polarization* axes, which are legitimately ``"x"`` / ``"y"``.
POLARIZATION_AXES = ("x", "y")


def _is_axis_name(identifier: str) -> bool:
    """Whether a variable name plausibly holds a sweep-axis name."""
    lowered = identifier.lower()
    return lowered == "axis" or lowered.endswith("_axis") \
        or lowered.startswith("axis_")


@register_rule
class AxisLiteralRule(Rule):
    """Axis string literals must come from the real axis vocabulary.

    Sweep axes are stringly-typed at every API boundary
    (``multi_axis_sweep("frequency", ...)``,
    ``ProbeGrid.product(distance=...)``, ``axes=("tx_power",)`` in
    experiment specs), so a typo like ``"freqency"`` fails only deep at
    runtime — or worse, silently compares unequal.  The rule resolves
    the vocabulary by importing :data:`repro.channel.grid.SWEEP_AXES`
    and flags (a) axis arguments of the sweep entry points, (b)
    ``ProbeGrid.product`` / ``ProbeGrid.aligned`` keywords outside
    ``GRID_AXES``, (c) comparisons and containment tests between an
    ``axis``-named variable and an unknown string literal, and (d)
    ``axes=`` coverage metadata in ``@experiment`` /
    ``ExperimentSpec`` registrations.
    """

    rule_id: ClassVar[str] = "RPR003"
    title: ClassVar[str] = ("sweep-axis literals must be members of "
                            "SWEEP_AXES / GRID_AXES")
    default_severity: ClassVar[Severity] = Severity.ERROR

    # ------------------------------------------------------------- #
    # Helpers
    # ------------------------------------------------------------- #
    def _check_literal(self, node: ast.expr, vocabulary: Tuple[str, ...],
                       what: str) -> None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value not in vocabulary:
                self.report(
                    node,
                    f"{what}: {node.value!r} is not one of "
                    f"{list(vocabulary)}",
                    suggestion="use a member of repro.channel.grid."
                               "SWEEP_AXES / GRID_AXES")

    # ------------------------------------------------------------- #
    # Checks
    # ------------------------------------------------------------- #
    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name in AXIS_CALLEES:
            for keyword in node.keywords:
                if keyword.arg == "axis":
                    self._check_literal(keyword.value, sweep_axes(),
                                        f"axis argument of {name}")
            for arg in node.args[:_POSITIONAL_SCAN]:
                self._check_literal(arg, sweep_axes(),
                                    f"axis argument of {name}")
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in ("product", "aligned")
                and dotted_name(node.func.value).split(".")[-1]
                == "ProbeGrid"):
            for keyword in node.keywords:
                if keyword.arg is not None \
                        and keyword.arg not in grid_axes():
                    self.report(
                        keyword.value,
                        f"ProbeGrid.{node.func.attr} keyword "
                        f"{keyword.arg!r} is not one of "
                        f"{list(grid_axes())}",
                        suggestion="grid axes are validated at runtime "
                                   "too; use a GRID_AXES member")
        if name in _REGISTRY_CALLEES:
            for keyword in node.keywords:
                if keyword.arg == "axes" and isinstance(
                        keyword.value, (ast.Tuple, ast.List)):
                    for element in keyword.value.elts:
                        self._check_literal(
                            element, sweep_axes(),
                            f"axes metadata of {name}(...)")
        self.generic_visit(node)

    def _check_compare_literal(self, node: ast.expr, what: str) -> None:
        if (isinstance(node, ast.Constant)
                and node.value in POLARIZATION_AXES):
            return
        self._check_literal(node, grid_axes(), what)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        has_axis_var = any(
            (isinstance(operand, ast.Name) and _is_axis_name(operand.id))
            or (isinstance(operand, ast.Attribute)
                and _is_axis_name(operand.attr))
            for operand in operands)
        if has_axis_var:
            for operator, operand in zip(node.ops, node.comparators):
                if isinstance(operator, (ast.Eq, ast.NotEq)):
                    self._check_compare_literal(operand, "axis comparison")
                elif isinstance(operator, (ast.In, ast.NotIn)) \
                        and isinstance(operand, (ast.Tuple, ast.List,
                                                 ast.Set)):
                    for element in operand.elts:
                        self._check_compare_literal(
                            element, "axis containment test")
            if isinstance(node.left, ast.Constant):
                self._check_compare_literal(node.left, "axis comparison")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        # ``for axis in ("frequency", "distence"):`` — literal axis sets.
        if (isinstance(node.target, ast.Name)
                and _is_axis_name(node.target.id)
                and isinstance(node.iter, (ast.Tuple, ast.List, ast.Set))):
            for element in node.iter.elts:
                self._check_compare_literal(element,
                                            "axis iteration literal")
        self.generic_visit(node)


__all__ = ["AXIS_CALLEES", "AxisLiteralRule", "POLARIZATION_AXES",
           "grid_axes", "sweep_axes"]
