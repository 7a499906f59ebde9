"""The RULE-INFO and RULE-TIME database tables (section 4, Figure 4).

``RULE_INFO`` stores, per temporal rule, the calendar expression text, the
factorized expression, and the rendered evaluation plan.  ``RULE_TIME``
stores the *next* time point at which each rule must trigger; DBCRON
probes it every T time units.  Both are ordinary relations of the host
database, so they are themselves queryable with Postquel.  RULE_TIME is
DBCRON's probe table, not user history: it keeps no dead versions (a
write overwrites the row in place) and cannot be read ``as of`` a past
transaction.
"""

from __future__ import annotations

from repro.db.database import Database

__all__ = ["RuleTables"]

RULE_INFO = "rule_info"
RULE_TIME = "rule_time"


class RuleTables:
    """Creates and maintains RULE_INFO / RULE_TIME in a database."""

    def __init__(self, database: Database) -> None:
        self.db = database
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

    # -- maintenance ------------------------------------------------------------

    def register(self, rule, next_fire: int | None) -> None:
        """Insert catalog rows for a newly declared temporal rule."""
        info = self.db.relation(RULE_INFO)
        info.insert({
            "rulename": rule.name,
            "expression": rule.expression_text,
            "factorized": str(rule.expression),
            "eval_plan": rule.plan.text() if rule.plan is not None else "",
        }, fire_hooks=False)
        if next_fire is not None:
            self.db.relation(RULE_TIME).insert(
                {"rulename": rule.name, "next_fire": next_fire},
                fire_hooks=False)

    def unregister(self, name: str) -> None:
        """Delete a rule's RULE_INFO / RULE_TIME rows."""
        for table in (RULE_INFO, RULE_TIME):
            relation = self.db.relation(table)
            tid = relation.tid_of((name,))
            if tid is not None:
                relation.delete(tid, fire_hooks=False)

    def set_next_fire(self, name: str, next_fire: int | None) -> None:
        """Upsert (or clear, with None) a rule's next trigger point."""
        self.set_next_fires([(name, next_fire)])

    def set_next_fires(self, pairs) -> None:
        """Upsert (or clear, with None) many rules' next trigger points.

        The RULE_TIME write of one DBCRON wave: existing rows are
        overwritten through one :meth:`~repro.db.storage.Relation.
        update_many` (type-checked, in place, no dead version), rows
        that appear are inserted and rows cleared with None are
        deleted, as :meth:`set_next_fire` would per pair.  A name
        listed twice keeps its last value.
        """
        relation = self.db.relation(RULE_TIME)
        updates: list[tuple[int, dict]] = []
        inserts: list[dict] = []
        for name, next_fire in dict(pairs).items():
            tid = relation.tid_of((name,))
            if tid is None:
                if next_fire is not None:
                    inserts.append({"rulename": name,
                                    "next_fire": next_fire})
            elif next_fire is None:
                relation.delete(tid, fire_hooks=False)
            else:
                updates.append((tid, {"next_fire": next_fire}))
        if updates:
            relation.update_many(updates, fire_hooks=False)
        if inserts:
            relation.insert_many(inserts, fire_hooks=False)

    def next_fire_of(self, name: str) -> int | None:
        """The stored next trigger point of a rule, or None — found
        through the key map, which follows direct Postquel mutation."""
        relation = self.db.relation(RULE_TIME)
        tid = relation.tid_of((name,))
        return relation.get(tid)["next_fire"] if tid is not None else None

    def all_next_fires(self) -> list[tuple[str, int]]:
        """Every (rulename, next_fire) pair — the wheel's one-time sync."""
        return [(row["rulename"], row["next_fire"])
                for row in self.db.relation(RULE_TIME).scan()]

    def due_within(self, now: int, horizon: int) -> list[tuple[int, str]]:
        """(next_fire, rulename) pairs with next_fire <= now + horizon.

        Uses the ordered index on ``next_fire`` — this is DBCRON's probe.
        """
        relation = self.db.relation(RULE_TIME)
        index = relation.indexes.get("next_fire")
        bound = now + horizon
        pairs: list[tuple[int, str]] = []
        if index is not None:
            for tid in index.lookup_range(hi=bound):
                row = relation.get(tid)
                if row is not None:
                    pairs.append((row["next_fire"], row["rulename"]))
        else:
            for row in relation.scan():
                if row["next_fire"] <= bound:
                    pairs.append((row["next_fire"], row["rulename"]))
        pairs.sort()
        return pairs
