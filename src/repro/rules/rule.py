"""Event rules: ``On Event where Condition do Action`` (section 4).

An :class:`EventRule` watches one storage event kind on one relation.  Its
condition is a Postquel expression over the ``NEW`` and ``CURRENT`` tuple
variables (or any Python callable), and its action is a list of Postquel
statements (executed with NEW/CURRENT bound) or a Python callable — the
same shape as the POSTGRES rule system the paper builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.db.errors import RuleError
from repro.db.ql.ast import QlExpr, Statement
from repro.db.ql.parser import parse_ql_expression, parse_statement
from repro.db.storage import EVENT_KINDS
from repro.rules.events import Event

__all__ = ["EventRule"]


@dataclass
class EventRule:
    """A parsed, executable event rule."""

    name: str
    event: str
    relation: str
    condition: "QlExpr | Callable[[Event], bool] | None" = None
    actions: tuple = ()
    #: Python callable action (alternative to Postquel actions).
    callback: Callable | None = None
    enabled: bool = True
    #: Activation lifespan (inclusive axis ticks, checked against the
    #: rule manager's clock when one is attached).  None = always active.
    valid_between: tuple | None = None
    fire_count: int = field(default=0, init=False)

    @classmethod
    def define(cls, name: str, event: str, relation: str,
               condition: "str | Callable | None" = None,
               actions: "Sequence[str] | None" = None,
               callback: Callable | None = None) -> "EventRule":
        """Parse rule text into an executable rule.

        ``condition`` may be Postquel expression text (``"new.hours > 20"``)
        or a Python predicate over the event.  ``actions`` are Postquel
        statements; ``callback`` is a Python alternative.  At least one of
        ``actions``/``callback`` must be provided.
        """
        event = event.lower()
        if event not in EVENT_KINDS:
            raise RuleError(f"unknown event kind {event!r} "
                            f"(expected one of {EVENT_KINDS})")
        if not actions and callback is None:
            raise RuleError(f"rule {name!r} has no action")
        parsed_condition: "QlExpr | Callable | None" = None
        if isinstance(condition, str):
            parsed_condition = parse_ql_expression(condition)
        elif condition is not None:
            parsed_condition = condition
        parsed_actions: list[Statement] = [
            a if isinstance(a, Statement) else parse_statement(a)
            for a in (actions or ())]
        return cls(name=name, event=event, relation=relation.lower(),
                   condition=parsed_condition,
                   actions=tuple(parsed_actions), callback=callback)

    # -- evaluation -------------------------------------------------------------

    def matches(self, executor, event: Event, now: int | None = None
                ) -> bool:
        """True when the rule is active and its condition holds."""
        if not self.enabled:
            return False
        if self.valid_between is not None and now is not None:
            lo, hi = self.valid_between
            if not lo <= now <= hi:
                return False
        if self.condition is None:
            return True
        if callable(self.condition):
            return bool(self.condition(event))
        bindings = self._bindings(event)
        return executor._truthy(executor._eval(self.condition, bindings))

    def fire(self, database, event: Event) -> None:
        """Run the action(s) with NEW/CURRENT bound from the event."""
        self.fire_count += 1
        if self.callback is not None:
            self.callback(database, event)
        bindings = self._bindings(event)
        for action in self.actions:
            database._executor.execute(action, bindings)

    @staticmethod
    def _bindings(event: Event) -> dict:
        bindings: dict = {}
        if event.current is not None:
            bindings["current"] = event.current
            bindings["CURRENT"] = event.current
        if event.new is not None:
            bindings["new"] = event.new
            bindings["NEW"] = event.new
        return bindings
