"""RPR007 — no blocking calls in the serving plane."""

from __future__ import annotations

import ast
from typing import ClassVar, Set, Union

from repro.lint.base import LintContext, Rule, dotted_name, register_rule
from repro.lint.findings import Severity

#: Attribute calls that perform synchronous file I/O.
_BLOCKING_IO_ATTRIBUTES = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes", "readlines",
})

#: Callee names that issue a probe.  One of these inside a loop of an
#: ``async def`` is the per-request probing shape the coalescing window
#: exists to eliminate.
_PROBE_CALL_NAMES = frozenset({
    "measure", "measure_grid", "measure_aligned", "probe_aligned",
    "evaluate", "evaluate_grid",
})


@register_rule
class AsyncBlockingRule(Rule):
    """The serving plane must never block its event loop.

    :class:`~repro.serve.service.SurfaceService` multiplexes every
    station over one synchronous event heap on a virtual clock
    (:class:`~repro.serve.clock.VirtualClock`, whose actors are
    generators), so a single blocking call stalls *all* stations at
    once — and, worse, stalls them in real wall-clock time that the
    virtual clock never sees, silently breaking the determinism the
    serve experiments pin with trace digests.  Three shapes are flagged
    in ``repro/serve/`` files:

    * ``time.sleep(...)`` anywhere (also via ``from time import
      sleep`` and module aliases) — an actor waits by yielding its
      delay, which parks it on the clock's heap and advances
      deterministic time.
    * Synchronous file I/O inside an ``async def`` (``open(...)`` and
      ``Path.read_text`` / ``write_text`` / ``read_bytes`` /
      ``write_bytes`` / ``readlines``) — results must flow through the
      in-memory response plane and be serialized by the sync caller,
      not written from inside the service loop.
    * A probe call (``measure*`` / ``probe_aligned`` / ``evaluate*``)
      inside a loop of an ``async def`` — the per-request
      probing shape the batching window exists to remove.  Coalesce
      the window's requests into one stacked
      :class:`~repro.channel.grid.ProbeGrid` pass instead.

    The service's actors are generators, not coroutines, so the two
    ``async def`` checks find nothing in today's ``repro/serve/``; they
    apply to async code added there.
    """

    rule_id: ClassVar[str] = "RPR007"
    title: ClassVar[str] = ("no blocking calls (sleeps, sync file I/O, "
                            "per-request probe loops) in repro/serve/ "
                            "async code")
    default_severity: ClassVar[Severity] = Severity.ERROR

    def __init__(self, context: LintContext) -> None:
        super().__init__(context)
        self._sleep_aliases: Set[str] = set()
        self._time_aliases: Set[str] = set()
        self._async_depth = 0

    @classmethod
    def applies_to(cls, context: LintContext) -> bool:
        return context.has_role("serve")

    # ------------------------------------------------------------- #
    # Import tracking
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
    # Async scope tracking
    # ------------------------------------------------------------- #
    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._async_depth += 1
        self.generic_visit(node)
        self._async_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A sync def nested in an async def runs synchronously when
        # called from the coroutine, so it stays under async scrutiny.
        self.generic_visit(node)

    # ------------------------------------------------------------- #
    # Checks
    # ------------------------------------------------------------- #
    def _is_time_sleep(self, node: ast.Call) -> bool:
        name = dotted_name(node.func)
        if name in self._sleep_aliases:
            return True
        module, _, attribute = name.rpartition(".")
        return attribute == "sleep" and module in (
            self._time_aliases or {"time"})

    def visit_Call(self, node: ast.Call) -> None:
        if self._is_time_sleep(node):
            self.report(
                node,
                "time.sleep blocks the service event loop and bypasses "
                "the virtual clock",
                suggestion="yield the delay from the actor — "
                           "VirtualClock.run parks it on the event heap "
                           "and advances deterministic time")
        elif self._async_depth:
            if dotted_name(node.func) == "open":
                self.report(
                    node,
                    "synchronous open() inside async service code blocks "
                    "the event loop",
                    suggestion="keep file I/O out of the service loop; "
                               "serialize results from the sync caller "
                               "after serve_trace returns")
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr in _BLOCKING_IO_ATTRIBUTES):
                self.report(
                    node,
                    f"synchronous file I/O ({node.func.attr}) inside "
                    "async service code blocks the event loop",
                    suggestion="keep file I/O out of the service loop; "
                               "serialize results from the sync caller "
                               "after serve_trace returns")
        self.generic_visit(node)

    def _check_probe_loop(
            self, node: Union[ast.For, ast.While, ast.AsyncFor]) -> None:
        if not self._async_depth:
            return
        for statement in node.body:
            for inner in ast.walk(statement):
                if (isinstance(inner, ast.Call)
                        and isinstance(inner.func, (ast.Attribute, ast.Name))
                        and (inner.func.attr
                             if isinstance(inner.func, ast.Attribute)
                             else inner.func.id) in _PROBE_CALL_NAMES):
                    self.report(
                        node,
                        "per-request probe loop inside async service code "
                        "(one backend pass per iteration)",
                        suggestion="coalesce the window's requests into "
                                   "one stacked ProbeGrid pass "
                                   "(FleetSession.probe_aligned with "
                                   "repeated station names)")
                    return

    def visit_For(self, node: ast.For) -> None:
        self._check_probe_loop(node)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_probe_loop(node)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._check_probe_loop(node)
        self.generic_visit(node)


__all__ = ["AsyncBlockingRule"]
