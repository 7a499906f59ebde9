"""The RULE-INFO and RULE-TIME database tables (section 4, Figure 4).

``RULE_INFO`` stores, per temporal rule, the calendar expression text, the
factorized expression, and the rendered evaluation plan.  ``RULE_TIME``
stores the *next* time point at which each rule must trigger.  Both are
ordinary relations of the host database, so they are themselves
queryable with Postquel.  RULE_TIME keeps no dead versions (a write
overwrites the row in place) and cannot be read ``as of`` a past
transaction.

The timing wheel is the schedule of record, so RULE_TIME is a
durability and query record, **materialised on read**: new next fires
(declare, each DBCRON wave, a restore's one batch) wait in one
type-checked pending map, which RULE_TIME's ``before_access`` hook
applies through the relation's write path right before anything reads
or writes it.  A clear (a dropped rule, an ended schedule) is applied
at once, after what is pending, so every read sees the rows and row
order the writes would have left one by one (IMPLEMENTATION_NOTES
§11.5).
"""

from __future__ import annotations

import threading

from repro.db.database import Database

__all__ = ["RuleTables"]

RULE_INFO = "rule_info"
RULE_TIME = "rule_time"


class RuleTables:
    """Creates and maintains RULE_INFO / RULE_TIME in a database.

    ``lock`` (re-entrant; the rule manager's mutation lock) guards the
    pending map and its application.
    """

    def __init__(self, database: Database, lock: threading.RLock) -> None:
        self.db = database
        self._lock = lock
        #: rulename -> next_fire not yet in RULE_TIME, in write order.
        self._pending: dict[str, int] = {}
        if RULE_INFO not in database:
            database.create_table(RULE_INFO, [
                ("rulename", "text"),
                ("expression", "text"),
                ("factorized", "text"),
                ("eval_plan", "text"),
            ], key=("rulename",))
        if RULE_TIME not in database:
            relation = database.create_table(RULE_TIME, [
                ("rulename", "text"),
                ("next_fire", "abstime"),
            ], key=("rulename",))
            # Rewritten on every fire and never read in transaction
            # time: bounded by its live rows, one per armed rule.
            relation.keeps_history = False
            database.create_index(RULE_TIME, "next_fire")
        self._time = database.relation(RULE_TIME)
        self._time.before_access = self.apply_pending

    # -- maintenance ------------------------------------------------------------

    @staticmethod
    def _info_row(rule) -> dict:
        factorized, eval_plan = rule.catalog_texts
        return {"rulename": rule.name, "expression": rule.expression_text,
                "factorized": factorized, "eval_plan": eval_plan}

    def register(self, rule, next_fire: int | None) -> None:
        """Insert catalog rows for a newly declared temporal rule."""
        self.db.relation(RULE_INFO).insert(self._info_row(rule),
                                           fire_hooks=False)
        if next_fire is not None:
            self.set_next_fire(rule.name, next_fire)

    def register_many(self, rules) -> None:
        """Insert the RULE_INFO rows of many temporal rules, in order, in
        one batch (their next fires go through :meth:`set_next_fires`)."""
        self.db.relation(RULE_INFO).insert_many(
            [self._info_row(rule) for rule in rules], fire_hooks=False)

    def unregister(self, name: str) -> None:
        """Delete a rule's RULE_INFO / RULE_TIME rows."""
        info = self.db.relation(RULE_INFO)
        tid = info.tid_of((name,))
        if tid is not None:
            info.delete(tid, fire_hooks=False)
        self.set_next_fire(name, None)

    def set_next_fire(self, name: str, next_fire: int | None) -> None:
        """Upsert (or clear, with None) a rule's next trigger point."""
        self.set_next_fires([(name, next_fire)])

    def set_next_fires(self, pairs) -> None:
        """Upsert (or clear, with None) many rules' next trigger points.

        The RULE_TIME write of one DBCRON wave.  Every value is
        type-checked first (a non-``abstime`` raises
        :class:`~repro.db.errors.DataTypeError` and writes nothing);
        clears delete their rows now, new values wait in the pending
        map.  A name listed twice keeps its last value.
        """
        pairs = dict(pairs)
        validate = self.db.types.get("abstime").validate
        for next_fire in pairs.values():
            validate(next_fire)
        with self._lock:
            if None in pairs.values():
                self.apply_pending()
                for name, next_fire in pairs.items():
                    tid = self._time.tid_of((name,))
                    if next_fire is None and tid is not None:
                        self._time.delete(tid, fire_hooks=False)
            self._pending.update((name, next_fire)
                                 for name, next_fire in pairs.items()
                                 if next_fire is not None)

    def apply_pending(self) -> None:
        """Write the pending map into RULE_TIME (its ``before_access``
        hook): stored rows through one ``update_many``, the others
        through one ``insert_many``, in write order."""
        if not self._pending:
            return
        with self._lock:
            pending, self._pending = self._pending, {}
            relation = self._time
            updates: list[tuple[int, dict]] = []
            inserts: list[dict] = []
            for name, next_fire in pending.items():
                tid = relation.tid_of((name,))
                if tid is None:
                    inserts.append({"rulename": name, "next_fire": next_fire})
                else:
                    updates.append((tid, {"next_fire": next_fire}))
            if updates:
                relation.update_many(updates, fire_hooks=False)
            if inserts:
                relation.insert_many(inserts, fire_hooks=False)

    def next_fire_of(self, name: str) -> int | None:
        """The next trigger point of a rule, or None — from the pending
        map, else through the key map (which follows direct Postquel
        mutation); applies nothing."""
        with self._lock:
            if name in self._pending:
                return self._pending[name]
            tid = self._time.tid_of((name,))
            return self._time.get(tid)["next_fire"] if tid is not None \
                else None

    def all_next_fires(self) -> list[tuple[str, int]]:
        """Every (rulename, next_fire) pair — the wheel's one-time sync."""
        return [(row["rulename"], row["next_fire"])
                for row in self._time.scan()]

    def due_within(self, now: int, horizon: int) -> list[tuple[int, str]]:
        """(next_fire, rulename) pairs with next_fire <= now + horizon.

        Uses the ordered index on ``next_fire`` — this is the heap
        schedule's probe, and it pays for applying the pending writes.
        """
        relation = self.db.relation(RULE_TIME)
        tids = relation.indexes["next_fire"].lookup_range(hi=now + horizon)
        return sorted((row["next_fire"], row["rulename"])
                      for row in map(relation.get, tids))
