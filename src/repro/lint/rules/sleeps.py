"""RPR006 — no ad-hoc sleeping or hand-rolled retry loops."""

from __future__ import annotations

import ast
from typing import ClassVar, Set, Union

from repro.lint.base import LintContext, Rule, dotted_name, register_rule
from repro.lint.findings import Severity


def _handler_continues(handler: ast.ExceptHandler) -> bool:
    """Whether an except handler re-enters the loop (``continue``/``pass``
    falling through to the next iteration counts only via ``continue`` —
    a bare ``pass`` after the try also retries, but that shape is the
    skip-on-error idiom the rule deliberately leaves alone)."""
    for statement in handler.body:
        for node in ast.walk(statement):
            # A continue inside a *nested* loop belongs to that loop.
            if isinstance(node, (ast.For, ast.While, ast.AsyncFor)):
                return False
            if isinstance(node, ast.Continue):
                return True
    return False


def _is_attempt_loop(node: Union[ast.While, ast.For]) -> bool:
    """Whether a loop has the retry shape: ``while ...`` or
    ``for ... in range(...)`` (attempt counting).  ``for`` loops over
    real collections are skip-on-error territory, not retries."""
    if isinstance(node, ast.While):
        return True
    return (isinstance(node.iter, ast.Call)
            and dotted_name(node.iter.func).split(".")[-1] == "range")


@register_rule
class SleepRetryRule(Rule):
    """Time and retries belong to the fault plane, not to call sites.

    The whole reproduction runs on virtual clocks — the power supply
    accounts switching time without sleeping, and
    :class:`~repro.faults.retry.RetryPolicy` accounts backoff the same
    way — so a bare ``time.sleep`` anywhere outside ``repro/faults/``
    stalls the real process for no model benefit and makes the suite
    wall-clock-dependent.  In ``repro/serve/`` it would also stall every
    station at once in time the
    :class:`~repro.serve.clock.VirtualClock` never sees: an actor waits
    by yielding its delay to the clock's event heap.  Likewise a hand-rolled retry loop (a
    ``while``/``for attempt in range(...)`` whose ``except`` handler
    ``continue``\\ s) duplicates, without the deadline budget, typed
    retryable classification or health accounting, what
    :meth:`~repro.faults.retry.RetryPolicy.execute` already provides.
    Flags ``time.sleep(...)`` calls (also via ``from time import
    sleep``) and attempt-shaped retry loops; files under
    ``repro/faults/`` (the one layer allowed to own this machinery)
    are exempt.
    """

    rule_id: ClassVar[str] = "RPR006"
    title: ClassVar[str] = ("no bare time.sleep or hand-rolled retry loops "
                            "outside repro/faults/")
    default_severity: ClassVar[Severity] = Severity.ERROR

    def __init__(self, context: LintContext) -> None:
        super().__init__(context)
        self._sleep_aliases: Set[str] = set()
        self._time_aliases: Set[str] = set()

    @classmethod
    def applies_to(cls, context: LintContext) -> bool:
        # repro/faults/ owns the sleep/retry machinery.
        return not context.has_role("faults")

    # ------------------------------------------------------------- #
    # Import tracking (``from time import sleep [as s]``, ``import
    # time [as t]``)
    # ------------------------------------------------------------- #
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "time":
                self._time_aliases.add(alias.asname or "time")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name == "sleep":
                    self._sleep_aliases.add(alias.asname or "sleep")
        self.generic_visit(node)

    # ------------------------------------------------------------- #
    # Checks
    # ------------------------------------------------------------- #
    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        is_sleep = False
        if name in self._sleep_aliases:
            is_sleep = True
        elif "." in name:
            module, _, attribute = name.rpartition(".")
            is_sleep = attribute == "sleep" and module in (
                self._time_aliases or {"time"})
        if is_sleep:
            self.report(
                node,
                "bare time.sleep stalls the process; the reproduction "
                "models time on virtual clocks",
                suggestion="account the delay like RetryPolicy/"
                           "ProgrammablePowerSupply do (waited_s "
                           "bookkeeping), or move the code under "
                           "repro/faults/")
        self.generic_visit(node)

    def _check_loop(self, node: Union[ast.While, ast.For]) -> None:
        if _is_attempt_loop(node):
            for statement in node.body:
                if not isinstance(statement, ast.Try):
                    continue
                if any(_handler_continues(handler)
                       for handler in statement.handlers):
                    self.report(
                        node,
                        "hand-rolled retry loop (attempt loop whose except "
                        "handler continues)",
                        suggestion="use repro.faults.RetryPolicy.execute — "
                                   "it adds backoff, a deadline budget, "
                                   "typed retryable classification and "
                                   "health accounting")
                    break
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._check_loop(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_loop(node)


__all__ = ["SleepRetryRule"]
