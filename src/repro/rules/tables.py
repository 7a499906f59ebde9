"""The RULE-INFO and RULE-TIME database tables (section 4, Figure 4).

``RULE_INFO`` stores, per temporal rule, the calendar expression text, the
factorized expression, and the rendered evaluation plan.  ``RULE_TIME``
stores the *next* time point at which each rule must trigger; DBCRON
probes it every T time units.  Both are ordinary relations of the host
database, so they are themselves queryable with Postquel.
"""

from __future__ import annotations

from repro.db.database import Database
from repro.db.errors import RuleError

__all__ = ["RuleTables"]

RULE_INFO = "rule_info"
RULE_TIME = "rule_time"


class RuleTables:
    """Creates and maintains RULE_INFO / RULE_TIME in a database."""

    def __init__(self, database: Database) -> None:
        self.db = database
        #: RULE_TIME tid per rulename — O(1) next-fire maintenance at
        #: alerting scale (the relation update keeps a row's tid stable).
        #: Purely a cache: every read validates against the live row and
        #: falls back to a scan, so direct Postquel mutation of the
        #: catalog tables stays legal.
        self._time_tids: dict[str, int] = {}
        if RULE_INFO not in database:
            database.create_table(RULE_INFO, [
                ("rulename", "text"),
                ("expression", "text"),
                ("factorized", "text"),
                ("eval_plan", "text"),
            ], key=("rulename",))
        if RULE_TIME not in database:
            database.create_table(RULE_TIME, [
                ("rulename", "text"),
                ("next_fire", "abstime"),
            ], key=("rulename",))
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
            row = self.db.relation(RULE_TIME).insert(
                {"rulename": rule.name, "next_fire": next_fire},
                fire_hooks=False)
            self._time_tids[rule.name] = row["_tid"]

    def _time_row(self, name: str, relation=None) -> dict | None:
        """The live RULE_TIME row of ``name`` (cached tid, scan fallback)."""
        if relation is None:
            relation = self.db.relation(RULE_TIME)
        tid = self._time_tids.get(name)
        if tid is not None:
            row = relation.get(tid)
            if row is not None and row["rulename"] == name:
                return row
            del self._time_tids[name]  # stale: mutated behind our back
        for row in relation.scan():
            if row["rulename"] == name:
                self._time_tids[name] = row["_tid"]
                return row
        return None

    def unregister(self, name: str) -> None:
        """Delete a rule's RULE_INFO / RULE_TIME rows."""
        relation = self.db.relation(RULE_INFO)
        for row in list(relation.scan()):
            if row["rulename"] == name:
                relation.delete(row["_tid"], fire_hooks=False)
        row = self._time_row(name)
        if row is not None:
            self.db.relation(RULE_TIME).delete(row["_tid"],
                                               fire_hooks=False)
            self._time_tids.pop(name, None)

    def set_next_fire(self, name: str, next_fire: int | None) -> None:
        """Upsert (or clear, with None) a rule's next trigger point."""
        self.set_next_fires([(name, next_fire)])

    def set_next_fires(self, pairs) -> None:
        """Upsert (or clear, with None) many rules' next trigger points.

        The RULE_TIME write of one DBCRON wave: existing rows change
        through one :meth:`~repro.db.storage.Relation.update_many`,
        rows that appear are inserted and rows cleared with None are
        deleted, as :meth:`set_next_fire` would per pair.  A name
        listed twice keeps its last value.
        """
        relation = self.db.relation(RULE_TIME)
        updates: list[tuple[int, dict]] = []
        inserts: list[dict] = []
        for name, next_fire in dict(pairs).items():
            row = self._time_row(name, relation)
            if row is None:
                if next_fire is not None:
                    inserts.append({"rulename": name,
                                    "next_fire": next_fire})
            elif next_fire is None:
                relation.delete(row["_tid"], fire_hooks=False)
                del self._time_tids[name]
            else:
                updates.append((row["_tid"], {"next_fire": next_fire}))
        if updates:
            relation.update_many(updates, fire_hooks=False)
        if inserts:
            for row in relation.insert_many(inserts, fire_hooks=False):
                self._time_tids[row["rulename"]] = row["_tid"]

    def next_fire_of(self, name: str) -> int | None:
        """The stored next trigger point of a rule, or None."""
        row = self._time_row(name)
        return row["next_fire"] if row is not None else None

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
