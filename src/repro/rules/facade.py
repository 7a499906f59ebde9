"""``Session.rules`` — the unified rule surface of the stack.

The paper's two declaration forms — ``On Event where Condition do
Action`` and ``On Calendar-Expression do Action`` (section 4) — were
historically reachable only through two ad-hoc ``RuleManager.define_*``
methods with positional signatures.  This facade fronts both behind one
object with keyword-only arguments mirroring the paper's syntax::

    session.rules.on_event("audit", event="append", relation="emp",
                           where="new.hours > 20", do=[...])
    session.rules.on_calendar("payday", expression="LAST_BUS_DAYS",
                              do=[...])
    session.rules.drop("audit")
    session.rules.stats()

The facade reads the manager and daemon through the session on
every call, so it stays valid across ``Session.attach_database``.
"""

from __future__ import annotations

from typing import Callable, Sequence

__all__ = ["RulesFacade"]


class RulesFacade:
    """The rule API of one :class:`~repro.session.Session`."""

    def __init__(self, session) -> None:
        self._session = session

    @property
    def _manager(self):
        return self._session.manager

    @property
    def _cron(self):
        return self._session.cron

    # -- declaration ---------------------------------------------------------

    def on_event(self, name: str, *, event: str, relation: str,
                 where: "str | Callable | None" = None,
                 do: "Sequence[str] | None" = None,
                 callback: Callable | None = None,
                 valid_between: tuple | None = None):
        """Declare ``On Event [to relation] where Condition do Action``."""
        return self._manager.declare_event(
            name, event=event, relation=relation, condition=where,
            actions=do, callback=callback, valid_between=valid_between)

    def on_calendar(self, name: str, *, expression: str,
                    do: "Sequence[str] | None" = None,
                    callback: Callable | None = None,
                    after: int | None = None,
                    valid_between: tuple | None = None,
                    catchup: str = "all"):
        """Declare ``On Calendar-Expression do Action``."""
        return self._manager.declare_temporal(
            name, expression=expression, actions=do, callback=callback,
            after=after, valid_between=valid_between, catchup=catchup)

    def drop(self, name: str) -> None:
        """Remove a rule of either kind (catalog rows included)."""
        self._manager.drop_rule(name)

    # -- introspection -------------------------------------------------------

    def get(self, name: str):
        """The live rule object, or None."""
        manager = self._manager
        return manager.event_rules.get(name) or \
            manager.temporal_rules.get(name)

    def names(self) -> list[str]:
        """All rule names, event rules first, each group sorted."""
        manager = self._manager
        return sorted(manager.event_rules) + sorted(manager.temporal_rules)

    def __contains__(self, name: str) -> bool:
        manager = self._manager
        return name in manager.event_rules or \
            name in manager.temporal_rules

    def __len__(self) -> int:
        manager = self._manager
        return len(manager.event_rules) + len(manager.temporal_rules)

    def stats(self) -> dict:
        """One dict for dashboards: rules, daemon and scheduler.

        Backs the CLI ``\\rules stats`` report.
        """
        manager, cron = self._manager, self._cron
        return {
            "event_rules": len(manager.event_rules),
            "temporal_rules": len(manager.temporal_rules),
            "clock": cron.clock.now,
            "daemon": {
                "scheduler": cron.sched.kind,
                "period": cron.period,
                "probes": cron.stats.probes,
                "fires": cron.stats.fires,
                "reschedules": cron.stats.reschedules,
                "max_schedule_size": cron.stats.max_heap_size,
            },
            "schedule": cron.sched.stats(),
        }
