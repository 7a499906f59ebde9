"""Temporal rules: ``On Calendar-Expression do Action`` (section 4).

A :class:`TemporalRule` triggers at every time point of a calendar
expression — e.g. ``On Every Tuesday do Proc_X`` with the calendar
expression ``{[2]/DAYS:during:WEEKS}``.  When declared, the expression is
parsed and factorized, an evaluation plan is compiled (exactly the
pipeline of section 3.4), and the *next trigger time point* is computed.
All of this is persisted by :class:`~repro.rules.tables.RuleTables` into
the RULE-INFO and RULE-TIME database tables that DBCRON probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.catalog.registry import CalendarRegistry
from repro.db.errors import RuleError
from repro.db.ql.ast import Statement
from repro.db.ql.parser import parse_statement
from repro.lang.errors import PlanError
from repro.lang.factorizer import factorize
from repro.lang.parser import parse_expression
from repro.lang.plan import Plan
from repro.lang.planner import compile_expression

__all__ = ["TemporalRule"]


@dataclass
class TemporalRule:
    """A parsed, compiled temporal rule."""

    name: str
    expression_text: str
    expression: object          # factorized AST
    plan: Plan | None
    #: RULE_INFO's ``factorized`` and ``eval_plan`` texts, rendered once
    #: per compiled expression (thousands of rules share a handful).
    catalog_texts: tuple[str, str]
    #: Compiled periodic form (None = materialising fallback).  Purely
    #: informational on the rule: scheduling goes through
    #: ``registry.next_occurrence``, which re-derives the compiled form
    #: from the registry's own memo so catalog redefinitions are never
    #: served stale.
    periodic: object = None
    actions: tuple = ()
    callback: Callable | None = None
    enabled: bool = True
    #: Activation lifespan (inclusive axis ticks); the rule never
    #: triggers outside it.  None = always active.
    valid_between: tuple | None = None
    #: Catch-up policy when the clock jumps past several trigger points:
    #: "all" fires every missed point, "latest" only the most recent.
    catchup: str = "all"
    fire_count: int = field(default=0, init=False)
    last_fired: int | None = field(default=None, init=False)

    @classmethod
    def define(cls, name: str, calendar_expression: str,
               registry: CalendarRegistry,
               actions: "Sequence[str] | None" = None,
               callback: Callable | None = None,
               valid_between: tuple | None = None,
               catchup: str = "all") -> "TemporalRule":
        """Parse/factorize/plan a temporal rule declaration."""
        if not actions and callback is None:
            raise RuleError(f"temporal rule {name!r} has no action")
        if catchup not in ("all", "latest"):
            raise RuleError(f"unknown catch-up policy {catchup!r}")
        if valid_between is not None and \
                valid_between[0] > valid_between[1]:
            raise RuleError(f"inverted rule lifespan {valid_between}")
        # Parse/factorize/plan once per distinct expression text: at
        # alerting scale thousands of rules share a handful of calendar
        # expressions, and the compiled artifacts are immutable, so they
        # are memoised in the registry's cache (keyed on the catalog
        # version — a redefinition recompiles).
        compile_key = ("rule-compile", calendar_expression,
                       registry.memo_token, registry.version)
        cached = registry.matcache.memo_get(compile_key)
        if cached is not None:
            factored, plan, texts = cached
        else:
            expr = parse_expression(calendar_expression)
            factored = factorize(expr, registry.resolver).expression
            try:
                plan = compile_expression(
                    factored, registry.system, registry.resolver,
                    context_window=registry.default_window)
            except PlanError:
                plan = None
            texts = (str(factored), plan.text() if plan is not None else "")
            registry.matcache.memo_put(compile_key, (factored, plan, texts))
        parsed_actions = tuple(
            a if isinstance(a, Statement) else parse_statement(a)
            for a in (actions or ()))
        # Warm the periodic compilation at declaration time (memoised in
        # the registry): every later next_trigger on a compiled rule is
        # then O(offsets) modular arithmetic with no window generation.
        pset = registry.periodic_set(calendar_expression)
        return cls(name=name, expression_text=calendar_expression,
                   expression=factored, plan=plan, catalog_texts=texts,
                   periodic=pset,
                   actions=parsed_actions, callback=callback,
                   valid_between=valid_between, catchup=catchup)

    # -- scheduling --------------------------------------------------------------

    def next_trigger(self, registry: CalendarRegistry, after: int,
                     horizon_days: int | None = None) -> int | None:
        """Next time point strictly after ``after`` at which to fire.

        Respects the activation lifespan: points before it are skipped,
        points after it end the schedule (returns None).  On a
        periodically compiled rule the registry answers by modular
        arithmetic (no window generation), uncapped unless
        ``horizon_days`` is given; a declined expression is searched up
        to ``horizon_days`` (the registry's windowed horizon when None)
        ahead.  Either way the computed point
        is memoised in the registry's shared materialisation cache keyed
        on the registry version, so DBCRON re-probing an unchanged
        catalog after every fire costs one lookup.
        """
        key = ("rule-next", self.expression_text, after, horizon_days,
               self.valid_between, registry.memo_token, registry.version)
        cached = registry.matcache.memo_get(key)
        if cached is not None:
            return cached[0]
        tracer = registry.instrumentation.tracer
        if tracer is not None:
            with tracer.span("rule.next_trigger", rule=self.name,
                             after=after):
                result = self._next_trigger(registry, after, horizon_days)
        else:
            result = self._next_trigger(registry, after, horizon_days)
        registry.matcache.memo_put(key, (result,))
        return result

    def _next_trigger(self, registry: CalendarRegistry, after: int,
                      horizon_days: int) -> int | None:
        """The uncached :meth:`next_trigger` computation."""
        if self.valid_between is not None:
            lo, hi = self.valid_between
            if after < lo - 1:
                after = lo - 1 if lo - 1 != 0 else -1
            candidate = registry.next_occurrence(
                self.expression_text, after, horizon_days=horizon_days)
            if candidate is None or candidate > hi:
                return None
            return candidate
        return registry.next_occurrence(self.expression_text, after,
                                        horizon_days=horizon_days)

    # -- firing ------------------------------------------------------------------

    def fire(self, database, at_tick: int, bindings: dict) -> None:
        """Run the rule's action at time point ``at_tick``.

        Postquel actions see a pseudo tuple variable ``now`` with columns
        ``t`` (the axis tick) and ``text`` (its civil-date spelling):
        ``bindings`` is :meth:`now_bindings` of ``at_tick``, which
        DBCRON builds once per wave tick.
        """
        self.fire_count += 1
        self.last_fired = at_tick
        if self.callback is not None:
            self.callback(database, at_tick)
        if not self.actions:
            return
        for action in self.actions:
            database._executor.execute(action, bindings)

    @staticmethod
    def now_bindings(database, at_tick: int) -> dict:
        """The action bindings at ``at_tick``: the ``now`` pseudo tuple."""
        return {"now": {"t": at_tick,
                        "text": str(database.system.date_of(at_tick)),
                        "_tid": 0}}
