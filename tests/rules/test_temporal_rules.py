"""Unit tests for temporal rules and the RULE tables (E8/E9 support)."""

import pytest

from repro.db import DataTypeError, RuleError
from repro.rules import RULE_INFO, RULE_TIME, RuleManager, TemporalRule


@pytest.fixture()
def manager(db):
    return RuleManager(db)


class TestDefinition:
    def test_expression_parsed_and_factorized(self, manager, db):
        rule = manager.declare_temporal(
            "tuesdays", expression="[2]/DAYS:during:WEEKS",
            callback=lambda d, t: None)
        assert rule.expression is not None
        assert rule.plan is not None

    def test_requires_action(self, db):
        with pytest.raises(RuleError):
            TemporalRule.define("r", "[2]/DAYS:during:WEEKS",
                                db.calendars)

    def test_rule_info_row_written(self, manager, db):
        manager.declare_temporal("tuesdays",
                                 expression="[2]/DAYS:during:WEEKS",
                                 callback=lambda d, t: None)
        rows = db.execute(
            f'retrieve (r.rulename, r.expression, r.eval_plan) '
            f'from r in {RULE_INFO}')
        assert rows.column("rulename") == ["tuesdays"]
        assert "generate(DAYS" in rows.rows[0]["eval_plan"]

    def test_rule_time_row_written(self, manager, db):
        after = db.system.day_of("Jan 1 1993")
        manager.declare_temporal("tuesdays",
                                 expression="[2]/DAYS:during:WEEKS",
                                 callback=lambda d, t: None,
                                 after=after)
        next_fire = manager.tables.next_fire_of("tuesdays")
        assert str(db.system.date_of(next_fire)) == "Jan 5 1993"

    def test_duplicate_name_rejected(self, manager):
        manager.declare_temporal("r", expression="[2]/DAYS:during:WEEKS",
                                 callback=lambda d, t: None)
        with pytest.raises(RuleError):
            manager.declare_temporal("r", expression="[3]/DAYS:during:WEEKS",
                                     callback=lambda d, t: None)

    def test_drop_removes_catalog_rows(self, manager, db):
        manager.declare_temporal("gone", expression="[2]/DAYS:during:WEEKS",
                                 callback=lambda d, t: None)
        manager.drop_rule("gone")
        assert db.execute(
            f"retrieve (r.rulename) from r in {RULE_INFO}").rows == []
        assert db.execute(
            f"retrieve (r.rulename) from r in {RULE_TIME}").rows == []


class TestFiring:
    def test_fire_runs_callback_and_reschedules(self, manager, db):
        fired = []
        after = db.system.day_of("Jan 1 1993")
        manager.declare_temporal("tuesdays",
                                 expression="[2]/DAYS:during:WEEKS",
                                 callback=lambda d, t: fired.append(t),
                                 after=after)
        first = manager.tables.next_fire_of("tuesdays")
        next_fire = manager.fire_temporal("tuesdays", first)
        assert fired == [first]
        assert next_fire == first + 7
        assert manager.tables.next_fire_of("tuesdays") == next_fire

    def test_ql_action_with_now_binding(self, manager, db):
        db.create_table("log", [("t", "abstime"), ("label", "text")])
        after = db.system.day_of("Jan 1 1993")
        manager.declare_temporal(
            "logger", expression="[2]/DAYS:during:WEEKS",
            actions=['append log (t = now.t, label = now.text)'],
            after=after)
        first = manager.tables.next_fire_of("logger")
        manager.fire_temporal("logger", first)
        rows = db.execute("retrieve (l.t, l.label) from l in log")
        assert rows.rows[0]["t"] == first
        assert rows.rows[0]["label"] == "Jan 5 1993"

    def test_fire_unknown_rule_is_noop(self, manager):
        assert manager.fire_temporal("ghost", 1) is None

    def test_next_trigger_none_when_expired(self, manager, db):
        registry = db.calendars
        registry.define("once", values=[(50, 50)], granularity="DAYS")
        rule = manager.declare_temporal("one_shot", expression="ONCE",
                                        callback=lambda d, t: None,
                                        after=1)
        assert manager.tables.next_fire_of("one_shot") == 50
        manager.fire_temporal("one_shot", 50)
        assert manager.tables.next_fire_of("one_shot") is None


class TestRuleTables:
    def test_due_within_uses_order(self, manager, db):
        for i, name in enumerate(["a", "b", "c"]):
            db.calendars.define(f"cal_{name}",
                                values=[(100 + i, 100 + i)],
                                granularity="DAYS")
            manager.declare_temporal(name, expression=f"CAL_{name}",
                                     callback=lambda d, t: None,
                                     after=1)
        due = manager.tables.due_within(now=99, horizon=2)
        assert [name for _, name in due] == ["a", "b"]

    def test_set_next_fire_insert_update_delete(self, manager, db):
        tables = manager.tables
        tables.set_next_fire("x", 10)
        assert tables.next_fire_of("x") == 10
        tables.set_next_fire("x", 20)
        assert tables.next_fire_of("x") == 20
        tables.set_next_fire("x", None)
        assert tables.next_fire_of("x") is None

    @pytest.mark.parametrize("bad", [True, 1.5, "20"],
                             ids=["bool", "float", "text"])
    def test_set_next_fires_type_checks_every_value(self, manager, db, bad):
        # RULE_TIME is overwritten in place, but every value is still an
        # abstime: a bad one fails the batch before any row changes.
        tables = manager.tables
        tables.set_next_fires([("a", 5), ("b", 6)])
        with pytest.raises(DataTypeError):
            tables.set_next_fires([("a", 7), ("b", bad)])
        assert sorted(tables.all_next_fires()) == [("a", 5), ("b", 6)]
        assert db.relation("rule_time").indexes["next_fire"].lookup_eq(7) \
            == []

    def test_set_next_fires_upserts_and_clears_in_one_batch(self, manager,
                                                            db):
        tables = manager.tables
        tables.set_next_fires([("keep", 5), ("move", 6), ("drop", 7)])
        relation = db.relation("rule_time")
        move_tid = relation.tid_of(("move",))
        data_version = relation.data_version
        tables.set_next_fires([("move", 16), ("drop", None), ("new", 9),
                               ("gone", None), ("move", 26)])
        assert sorted(tables.all_next_fires()) == \
            [("keep", 5), ("move", 26), ("new", 9)]
        # A name listed twice is written once, with its last value: one
        # live row under its old tid, indexed at 26 only, and one
        # update + one delete + one insert batch in the data version.
        rows = [row for row in relation.scan() if row["rulename"] == "move"]
        assert [(row["_tid"], row["next_fire"]) for row in rows] == \
            [(move_tid, 26)]
        index = relation.indexes["next_fire"]
        assert index.lookup_eq(16) == []
        assert index.lookup_eq(26) == [move_tid]
        assert len(index) == len(relation) == 3
        assert relation.data_version == data_version + 3
        tids = {row["rulename"]: row["_tid"] for row in relation.scan()}
        assert relation.indexes["next_fire"].lookup_range(hi=100) == \
            [tids[name] for name in ("keep", "new", "move")]
