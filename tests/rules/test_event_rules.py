"""Unit tests for event rules (On Event where Condition do Action)."""

import pytest

from repro.db import RuleError
from repro.rules import EventRule, RuleManager


@pytest.fixture()
def rigged(db):
    manager = RuleManager(db)
    db.create_table("students", [("name", "text"), ("hours", "int4")])
    db.create_table("audit", [("msg", "text")])
    return db, manager


class TestDefinition:
    def test_define_parses_condition_and_actions(self, rigged):
        db, manager = rigged
        rule = manager.declare_event(
            "r1", event="append", relation="students",
            condition="new.hours > 20",
            actions=['append audit (msg = new.name)'])
        assert rule.event == "append"
        assert rule.condition is not None

    def test_unknown_event_kind(self, rigged):
        db, manager = rigged
        with pytest.raises(RuleError):
            manager.declare_event("r1", event="upsert", relation="students",
                                  callback=lambda d, e: None)

    def test_missing_action(self, rigged):
        with pytest.raises(RuleError):
            EventRule.define("r1", "append", "students")

    def test_duplicate_name(self, rigged):
        db, manager = rigged
        manager.declare_event("r1", event="append", relation="students",
                              callback=lambda d, e: None)
        with pytest.raises(RuleError):
            manager.declare_event("r1", event="delete", relation="students",
                                  callback=lambda d, e: None)


class TestFiring:
    def test_append_rule_with_ql_action(self, rigged):
        db, manager = rigged
        manager.declare_event(
            "watch", event="append", relation="students",
            condition="new.hours > 20",
            actions=['append audit (msg = new.name || " overworked")'])
        db.insert("students", name="alice", hours=25)
        db.insert("students", name="bob", hours=10)
        audit = db.execute("retrieve (a.msg) from a in audit")
        assert audit.column("msg") == ["alice overworked"]

    def test_condition_none_always_fires(self, rigged):
        db, manager = rigged
        fired = []
        manager.declare_event("all", event="append", relation="students",
                              callback=lambda d, e: fired.append(e))
        db.insert("students", name="x", hours=1)
        assert len(fired) == 1

    def test_python_condition(self, rigged):
        db, manager = rigged
        fired = []
        manager.declare_event(
            "py", event="append", relation="students",
            condition=lambda e: e.new["hours"] % 2 == 0,
            callback=lambda d, e: fired.append(e.new["name"]))
        db.insert("students", name="even", hours=2)
        db.insert("students", name="odd", hours=3)
        assert fired == ["even"]

    def test_replace_rule_sees_current_and_new(self, rigged):
        db, manager = rigged
        seen = []
        manager.declare_event(
            "rep", event="replace", relation="students",
            callback=lambda d, e: seen.append(
                (e.current["hours"], e.new["hours"])))
        row = db.insert("students", name="a", hours=1)
        db.relation("students").update(row["_tid"], {"hours": 9})
        assert seen == [(1, 9)]

    def test_delete_rule(self, rigged):
        db, manager = rigged
        seen = []
        manager.declare_event(
            "del", event="delete", relation="students",
            callback=lambda d, e: seen.append(e.current["name"]))
        row = db.insert("students", name="bye", hours=1)
        db.relation("students").delete(row["_tid"])
        assert seen == ["bye"]

    def test_retrieve_rule_fires_per_touched_tuple(self, rigged):
        db, manager = rigged
        db.insert("students", name="a", hours=25)
        db.insert("students", name="b", hours=5)
        seen = []
        manager.declare_event(
            "watch_reads", event="retrieve", relation="students",
            callback=lambda d, e: seen.append(e.current["name"]))
        db.execute("retrieve (s.name) from s in students "
                   "where s.hours > 20")
        # Both tuples were touched by the scan... only matching ones
        # reach the result, but the event fires for contributing tuples.
        assert "a" in seen

    def test_fire_count_tracked(self, rigged):
        db, manager = rigged
        rule = manager.declare_event(
            "counting", event="append", relation="students",
            callback=lambda d, e: None)
        db.insert("students", name="x", hours=1)
        db.insert("students", name="y", hours=2)
        assert rule.fire_count == 2

    def test_disabled_rule_does_not_fire(self, rigged):
        db, manager = rigged
        fired = []
        rule = manager.declare_event(
            "off", event="append", relation="students",
            callback=lambda d, e: fired.append(1))
        rule.enabled = False
        db.insert("students", name="x", hours=1)
        assert fired == []

    def test_drop_rule_detaches_hook(self, rigged):
        db, manager = rigged
        fired = []
        manager.declare_event("temp", event="append", relation="students",
                              callback=lambda d, e: fired.append(1))
        manager.drop_rule("temp")
        db.insert("students", name="x", hours=1)
        assert fired == []

    def test_drop_unknown_rule(self, rigged):
        db, manager = rigged
        with pytest.raises(RuleError):
            manager.drop_rule("ghost")


class TestCascades:
    def test_rule_chain(self, rigged):
        db, manager = rigged
        db.create_table("audit2", [("msg", "text")])
        manager.declare_event(
            "first", event="append", relation="students",
            actions=['append audit (msg = new.name)'])
        manager.declare_event(
            "second", event="append", relation="audit",
            actions=['append audit2 (msg = new.msg || "!")'])
        db.insert("students", name="chain", hours=1)
        assert db.execute("retrieve (a.msg) from a in audit2") \
            .column("msg") == ["chain!"]

    def test_runaway_cascade_stopped(self, rigged):
        db, manager = rigged
        manager.declare_event(
            "loop", event="append", relation="audit",
            actions=['append audit (msg = new.msg)'])
        with pytest.raises(RuleError):
            db.insert("audit", msg="boom")
