"""The rule manager: declaration, storage and firing of rules.

Wires :class:`~repro.rules.rule.EventRule` objects into the storage-layer
event hooks and :class:`~repro.rules.temporal.TemporalRule` objects into
the RULE-INFO/RULE-TIME tables probed by DBCRON.  A cascade-depth guard
stops runaway rule chains (a rule whose action triggers itself).
"""

from __future__ import annotations

import threading

from typing import Callable, Sequence

from repro.db.database import Database
from repro.db.errors import RuleError
from repro.errors import ReproError
from repro.rules.events import Event
from repro.rules.rule import EventRule
from repro.rules.tables import RuleTables
from repro.rules.temporal import TemporalRule

__all__ = ["RuleManager"]

#: Receives ``[(rulename, next_fire)]`` per (re)schedule batch; a None
#: next fire means the rule left the schedule.
ScheduleListener = Callable[[list[tuple[str, "int | None"]]], None]


class RuleManager:
    """Owns all rules of one database."""

    def __init__(self, database: Database,
                 max_cascade_depth: int = 16) -> None:
        self.db = database
        self.event_rules: dict[str, EventRule] = {}
        self.temporal_rules: dict[str, TemporalRule] = {}
        self.max_cascade_depth = max_cascade_depth
        #: Cascade depth is tracked per *thread*: event-rule hooks
        #: (``_make_hook``) run cascades on whichever caller thread
        #: mutated the relation, outside ``_mutate_lock``, so a shared
        #: counter would add up the cascades of two callers sharing the
        #: database and raise a false depth error.
        self._local = threading.local()
        #: Serialises database-mutating rule work (``rule.fire``,
        #: RULE_TIME updates, schedule notifications) when callers share
        #: the database across their own threads; re-entrant so a
        #: cascading rule on one thread is unaffected.  The expensive
        #: calendar-pipeline work (``next_trigger``) runs outside it.
        self._mutate_lock = threading.RLock()
        self.tables = RuleTables(database, self._mutate_lock)
        #: Set by DBCron; used as the default schedule start for rules
        #: declared without an explicit ``after``.
        self.clock = None
        #: Callbacks notified when temporal rules are (re)scheduled.
        self._schedule_listeners: list[ScheduleListener] = []
        database.rule_manager = self

    @property
    def _depth(self) -> int:
        """This thread's cascade depth (see ``_local``)."""
        return getattr(self._local, "depth", 0)

    @_depth.setter
    def _depth(self, value: int) -> None:
        self._local.depth = value

    # -- admission ----------------------------------------------------------------

    def _admit(self, name: str) -> None:
        """Refuse a name already taken by a rule of either kind."""
        if name in self.event_rules or name in self.temporal_rules:
            raise RuleError(f"rule {name!r} is already defined")

    # -- event rules --------------------------------------------------------------

    def declare_event(self, name: str, *, event: str, relation: str,
                      condition: "str | Callable | None" = None,
                      actions: "Sequence[str] | None" = None,
                      callback: Callable | None = None,
                      valid_between: tuple | None = None) -> EventRule:
        """``On Event [to relation] where Condition do Action``."""
        self._admit(name)
        rule = EventRule.define(name, event, relation, condition, actions,
                                callback)
        rule.valid_between = valid_between
        self.db.relation(relation)  # validate it exists
        self.event_rules[name] = rule
        hook = self._make_hook(rule)
        self.db.relation(relation).hooks[rule.event].append(hook)
        rule._hook = hook  # for removal
        return rule

    def _make_hook(self, rule: EventRule) -> Callable[[Event], None]:
        def hook(event: Event) -> None:
            if not rule.enabled:
                return
            if self._depth >= self.max_cascade_depth:
                raise RuleError(
                    f"rule cascade exceeded depth {self.max_cascade_depth} "
                    f"(at rule {rule.name!r})")
            now = self.clock.now if self.clock is not None else None
            if rule.matches(self.db._executor, event, now=now):
                self._depth += 1
                try:
                    rule.fire(self.db, event)
                finally:
                    self._depth -= 1
        return hook

    # -- temporal rules -------------------------------------------------------------

    def declare_temporal(self, name: str, *, expression: str,
                         actions: "Sequence[str] | None" = None,
                         callback: Callable | None = None,
                         after: int | None = None,
                         valid_between: tuple | None = None,
                         catchup: str = "all") -> TemporalRule:
        """``On Calendar-Expression do Action`` (section 4).

        The expression is parsed, factorized and compiled (memoised per
        distinct expression text); the next trigger point after ``after``
        (default: the clock, else day 1) is computed and stored in
        RULE_TIME, and the schedule notification arms DBCRON directly.
        """
        self._admit(name)
        rule = TemporalRule.define(name, expression,
                                   self.db.calendars,
                                   actions=actions, callback=callback,
                                   valid_between=valid_between,
                                   catchup=catchup)
        if after is not None:
            start = after
        elif self.clock is not None:
            start = self.clock.now
        else:
            start = 1
        next_fire = rule.next_trigger(self.db.calendars, start)
        self.temporal_rules[name] = rule
        self.tables.register(rule, next_fire)
        self._notify_schedule([(name, next_fire)])
        return rule

    def restore_temporal(self, entries: "Sequence[tuple]"
                         ) -> list[TemporalRule]:
        """Re-register saved temporal rules in one batch.

        ``entries`` are ``(name, expression, actions, catchup, enabled,
        next_fire)``.  Each rule is defined as :meth:`declare_temporal`
        defines it but keeps its saved ``next_fire`` as is (None: not
        scheduled), with no next-trigger computation; RULE_INFO takes
        one ``insert_many``, RULE_TIME one ``set_next_fires`` and the
        listeners one notification.  The rows, their order and every
        rule's next fire equal those of declaring the rules one by one
        and then writing the saved next fires.
        """
        rules: dict[str, TemporalRule] = {}
        for name, expression, actions, catchup, enabled, _ in entries:
            self._admit(name)
            if name in rules:
                raise RuleError(f"rule {name!r} is already defined")
            rule = rules[name] = TemporalRule.define(
                name, expression, self.db.calendars, actions=actions,
                catchup=catchup)
            rule.enabled = enabled
        changes = [(entry[0], entry[5]) for entry in entries]
        with self._mutate_lock:
            self.temporal_rules.update(rules)
            self.tables.register_many(rules.values())
            self.tables.set_next_fires(changes)
            self._notify_schedule(changes)
        return list(rules.values())

    def drop_rule(self, name: str) -> None:
        """Remove an event or temporal rule (and its catalog rows)."""
        if name in self.event_rules:
            rule = self.event_rules.pop(name)
            hooks = self.db.relation(rule.relation).hooks[rule.event]
            if getattr(rule, "_hook", None) in hooks:
                hooks.remove(rule._hook)
            return
        if name in self.temporal_rules:
            del self.temporal_rules[name]
            self.tables.unregister(name)
            self._notify_schedule([(name, None)])
            return
        raise RuleError(f"unknown rule {name!r}")

    # -- DBCRON interface --------------------------------------------------------------

    def subscribe_schedule(self, listener: ScheduleListener) -> None:
        """Register a callback for (re)schedules: [(rule, next_fire)]."""
        self._schedule_listeners.append(listener)

    def unsubscribe_schedule(self, listener: ScheduleListener) -> None:
        """Remove a schedule listener (daemon detach); unknown = no-op."""
        try:
            self._schedule_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_schedule(self, changes: list[tuple[str, int | None]]
                         ) -> None:
        for listener in self._schedule_listeners:
            listener(changes)

    def fire_temporal(self, name: str, at_tick: int) -> int | None:
        """Fire one temporal rule and reschedule it; new next-fire or None.

        A one-entry :meth:`fire_wave`.
        """
        return self.fire_wave([(at_tick, name)])[0]

    def fire_wave(self, entries: "Sequence[tuple[int, str]]", *,
                  dispatch: "Callable | None" = None) -> list[int | None]:
        """Fire one DBCRON wave of ``(tick, name)`` entries, in order.

        Each entry runs its catch-up, cascade-depth check, ``rule.fire``
        and ``next_trigger``; the result per entry is the rule's new next
        fire (None when it was not rescheduled).  The bookkeeping is paid
        once per wave, in a ``finally``: one (pending) RULE_TIME write
        (:meth:`RuleTables.set_next_fires`) and one schedule notification
        for every rule still registered as the same object — a rule that
        an earlier action dropped or redeclared keeps what that action
        left.
        RULE_TIME therefore changes at the end of the wave: an action
        reading it mid-wave sees the pre-wave ``next_fire`` of rules
        that already fired in the same wave.

        A failing entry does not stop the wave: the rest still fire,
        every rule (the failing one too) is re-armed at its next
        trigger, and the first error is raised afterwards — as a
        :class:`RuleError` unless it already is a ``ReproError``.

        ``dispatch`` lets DBCRON wrap the per-entry part (per-fire
        timing and spans): it is called with ``fire(position)`` and must
        call it once per entry position, in order.  ``next_trigger``,
        the calendar-pipeline work, runs unlocked — the registry and
        matcache below it are thread-safe — while ``rule.fire`` and the
        flush are serialised by ``_mutate_lock``.

        Per-rule work is paid only where rules differ (:class:`_Wave`):
        a wave's rules share a handful of expressions, and a next
        trigger is a pure function of the expression, the lifespan, the
        tick and the catalog version, so it is looked up once per such
        group; the Postquel ``now`` binding is built once per tick.
        """
        outcomes: list = [None] * len(entries)
        wave = _Wave(self.db)

        def fire(position: int) -> int | None:
            tick, name = entries[position]
            outcome = outcomes[position] = self._fire_entry(name, tick,
                                                            wave)
            return outcome[2] if outcome is not None else None

        try:
            if dispatch is None:
                for position in range(len(entries)):
                    fire(position)
            else:
                dispatch(fire)
        finally:
            self._flush_wave(outcomes)
        for (tick, name), outcome in zip(entries, outcomes):
            if outcome is not None and outcome[3] is not None:
                error = outcome[3]
                if isinstance(error, ReproError):
                    raise error
                raise RuleError(f"rule {name!r} failed at tick {tick}: "
                                f"{error!r}") from error
        return [outcome[2] if outcome is not None else None
                for outcome in outcomes]

    def _fire_entry(self, name: str, at_tick: int,
                    wave: "_Wave") -> "tuple | None":
        """Fire one rule of a wave; ``(name, rule, next_fire, error)``.

        None for a missing or disabled rule; ``rule`` is None when the
        next trigger itself failed, which leaves the rule unarmed.
        """
        rule = self.temporal_rules.get(name)
        if rule is None or not rule.enabled:
            return None
        error = None
        try:
            if rule.catchup == "latest" and self.clock is not None:
                # Skip forward to the most recent missed trigger point.
                now = self.clock.now
                candidate = rule.next_trigger(self.db.calendars, at_tick)
                while candidate is not None and candidate <= now:
                    at_tick = candidate
                    candidate = rule.next_trigger(self.db.calendars,
                                                  at_tick)
            local = self._local
            depth = getattr(local, "depth", 0)
            if depth >= self.max_cascade_depth:
                raise RuleError(
                    f"rule cascade exceeded depth {self.max_cascade_depth}"
                    f" (at rule {name!r})")
            local.depth = depth + 1
            try:
                bindings = wave.bindings(at_tick)
                with self._mutate_lock:
                    rule.fire(self.db, at_tick, bindings)
            finally:
                local.depth = depth
        except Exception as exc:
            error = exc
        try:
            return name, rule, wave.next_trigger(rule, at_tick), error
        except Exception as exc:
            return name, None, None, error or exc

    def _flush_wave(self, outcomes: list) -> None:
        """One RULE_TIME write and one schedule notification per wave."""
        with self._mutate_lock:
            rules = self.temporal_rules
            changes = [(outcome[0], outcome[2]) for outcome in outcomes
                       if outcome is not None and outcome[1] is not None
                       and rules.get(outcome[0]) is outcome[1]]
            if changes:
                self.tables.set_next_fires(changes)
                self._notify_schedule(changes)


class _Wave:
    """What the entries of one DBCRON wave share.

    ``next_trigger`` answers once per group of rules with the same
    expression text, lifespan and tick, under the catalog version read
    when the entry asks — right after its rule fired — so an action
    that redefines a calendar mid-wave gives the later rules the new
    catalog's answer.  ``TemporalRule.next_trigger`` memoises the same
    answer in the registry, but behind the shared matcache's lock, LRU
    touch and hit counter; an unlocked dict per wave saves that on
    every rule after a group's first.  ``bindings`` builds the Postquel
    ``now`` binding once per tick.  A raising next trigger is not
    stored, so every rule of its group raises alike.
    """

    __slots__ = ("_db", "_next", "_bindings")

    def __init__(self, database: Database) -> None:
        self._db = database
        self._next: dict[tuple, "int | None"] = {}
        self._bindings: dict[int, dict] = {}

    def next_trigger(self, rule: TemporalRule, at_tick: int
                     ) -> "int | None":
        registry = self._db.calendars
        key = (rule.expression_text, rule.valid_between, at_tick,
               registry.memo_token, registry.version)
        next_fires = self._next
        if key not in next_fires:
            next_fires[key] = rule.next_trigger(registry, at_tick)
        return next_fires[key]

    def bindings(self, at_tick: int) -> dict:
        bindings = self._bindings.get(at_tick)
        if bindings is None:
            bindings = self._bindings[at_tick] = \
                TemporalRule.now_bindings(self._db, at_tick)
        return bindings
