"""Tests for the query-language extensions: DDL, rules, order by, into.

With these, the paper's entire interface — tables, indexes, calendar
definitions, event rules and temporal rules — is driveable from Postquel
text alone.
"""

import pytest

from repro.db import ExecutionError, QueryError, SchemaError
from repro.rules import RuleManager, SimulatedClock, DBCron


class TestCreateTable:
    def test_create_and_use(self, db):
        db.execute("create table points (x int4, y int4)")
        db.execute("append points (x = 1, y = 2)")
        assert db.execute("retrieve (p.x) from p in points") \
            .column("x") == [1]

    def test_key_clause(self, db):
        db.execute("create table users (id int4, name text) key (id)")
        db.execute('append users (id = 1, name = "a")')
        from repro.db import IntegrityError
        with pytest.raises(IntegrityError):
            db.execute('append users (id = 1, name = "b")')

    def test_valid_time_clause(self, db):
        db.execute("create table obs (t abstime, v float8) valid time t")
        assert db.relation("obs").schema.valid_time_column == "t"

    def test_create_index_statement(self, db):
        db.execute("create table big (k text)")
        db.execute("create index on big (k)")
        assert "k" in db.relation("big").indexes

    def test_drop_table_statement(self, db):
        db.execute("create table temp1 (x int4)")
        db.execute("drop table temp1")
        with pytest.raises(SchemaError):
            db.relation("temp1")


class TestDefineCalendarStatement:
    def test_define_and_query(self, db):
        db.execute('define calendar MIDMONTH as '
                   '"{return([15]/DAYS:during:MONTHS);}" granularity DAYS')
        assert "MIDMONTH" in db.calendars
        day15 = db.system.day_of("Jan 15 1993")
        result = db.execute(
            f'retrieve (member({day15}, "MIDMONTH") as hit)')
        assert result.rows[0]["hit"] is True


class TestDefineRuleStatements:
    def test_event_rule_via_ql(self, db):
        RuleManager(db)
        db.execute("create table students2 (name text, hours int4)")
        db.execute("create table audit2 (msg text)")
        db.execute(
            "define rule watch on append to students2 "
            "where new.hours > 20 "
            'do ( append audit2 (msg = new.name) )')
        db.execute('append students2 (name = "ana", hours = 30)')
        db.execute('append students2 (name = "bo", hours = 10)')
        assert db.execute("retrieve (a.msg) from a in audit2") \
            .column("msg") == ["ana"]

    def test_temporal_rule_via_ql(self, db):
        manager = RuleManager(db)
        clock = SimulatedClock(now=db.system.day_of("Jan 1 1993"))
        cron = DBCron(manager, clock, period=7)
        db.execute("create table log2 (t abstime)")
        db.execute(
            'define rule tick on calendar "[2]/DAYS:during:WEEKS" '
            "do ( append log2 (t = now.t) )")
        # The rule's schedule starts at the daemon clock's "now".
        cron.run_until(db.system.day_of("Feb 1 1993"))
        rows = db.execute("retrieve (l.t) from l in log2").rows
        assert len(rows) == 4  # Tuesdays of January 1993

    def test_multiple_actions(self, db):
        RuleManager(db)
        db.execute("create table src (x int4)")
        db.execute("create table a1 (x int4)")
        db.execute("create table a2 (x int4)")
        db.execute(
            "define rule fanout on append to src do ( "
            "append a1 (x = new.x) append a2 (x = new.x * 2) )")
        db.execute("append src (x = 7)")
        assert db.execute("retrieve (t.x) from t in a1").column("x") == [7]
        assert db.execute("retrieve (t.x) from t in a2").column("x") == [14]

    def test_drop_rule_statement(self, db):
        manager = RuleManager(db)
        db.execute("create table src2 (x int4)")
        db.execute("create table sink (x int4)")
        db.execute("define rule gone on append to src2 "
                   "do ( append sink (x = new.x) )")
        db.execute("drop rule gone")
        db.execute("append src2 (x = 1)")
        assert len(db.relation("sink")) == 0

    def test_rule_without_manager_rejected(self, db):
        assert db.rule_manager is None
        db.execute("create table lonely (x int4)")
        with pytest.raises(ExecutionError):
            db.execute("define rule r on append to lonely "
                       "do ( delete lonely )")


class TestRetrieveModifiers:
    @pytest.fixture()
    def filled(self, db):
        db.execute("create table nums (v int4, tag text)")
        for v, tag in [(3, "b"), (1, "a"), (3, "b"), (2, "a")]:
            db.execute(f'append nums (v = {v}, tag = "{tag}")')
        return db

    def test_order_by(self, filled):
        result = filled.execute(
            "retrieve (n.v) from n in nums order by v")
        assert result.column("v") == [1, 2, 3, 3]

    def test_order_by_desc(self, filled):
        result = filled.execute(
            "retrieve (n.v) from n in nums order by v desc")
        assert result.column("v") == [3, 3, 2, 1]

    def test_order_by_two_keys(self, filled):
        result = filled.execute(
            "retrieve (n.tag, n.v) from n in nums "
            "order by tag, v desc")
        assert [(r["tag"], r["v"]) for r in result.rows] == [
            ("a", 2), ("a", 1), ("b", 3), ("b", 3)]

    def test_unique(self, filled):
        result = filled.execute(
            "retrieve unique (n.v, n.tag) from n in nums order by v")
        assert [(r["v"], r["tag"]) for r in result.rows] == [
            (1, "a"), (2, "a"), (3, "b")]

    def test_into_creates_relation(self, filled):
        filled.execute(
            "retrieve into highs (n.v) from n in nums where n.v > 1")
        assert len(filled.relation("highs")) == 3

    def test_into_existing_relation_appends(self, filled):
        filled.execute("create table sink2 (v int4)")
        filled.execute("retrieve into sink2 (n.v) from n in nums")
        filled.execute("retrieve into sink2 (n.v) from n in nums")
        assert len(filled.relation("sink2")) == 8

    def test_order_by_unknown_column(self, filled):
        with pytest.raises(ExecutionError):
            filled.execute(
                "retrieve (n.v) from n in nums order by missing")


class TestTemporalConditionInEventRule:
    """Section 6(b) direction: temporal conditions inside rule bodies —
    already expressible because conditions are full Postquel expressions
    with calendar predicates."""

    def test_condition_with_within(self, db):
        manager = RuleManager(db)
        db.execute("create table deliveries (day abstime, item text)")
        db.execute("create table weekend_flags (item text)")
        manager.declare_event(
            "flag_weekend", event="append", relation="deliveries",
            condition='new.day within "Weekends"',
            actions=['append weekend_flags (item = new.item)'])
        saturday = db.system.day_of("Jan 2 1993")
        monday = db.system.day_of("Jan 4 1993")
        db.insert("deliveries", day=saturday, item="anvil")
        db.insert("deliveries", day=monday, item="feather")
        assert db.execute(
            "retrieve (w.item) from w in weekend_flags") \
            .column("item") == ["anvil"]


class TestParseErrors:
    def test_bad_create(self, db):
        with pytest.raises(QueryError):
            db.execute("create view v (x int4)")

    def test_bad_define(self, db):
        with pytest.raises(QueryError):
            db.execute("define operator plus")

    def test_rule_missing_do(self, db):
        with pytest.raises(QueryError):
            db.execute("define rule r on append to t "
                       "( append t (x = 1) )")


class TestDefineCalendarValues:
    def test_values_variant(self, db):
        db.execute("define calendar HOLS2 values ((31,31),(90,90)) "
                   "granularity DAYS")
        record = db.calendars.record("HOLS2")
        assert record.values.to_pairs() == ((31, 31), (90, 90))

    def test_negative_endpoints(self, db):
        db.execute("define calendar SPAN0 values ((-4,3))")
        assert db.calendars.record("SPAN0").values.to_pairs() == ((-4, 3),)

    def test_usable_in_queries(self, db):
        db.execute("define calendar HOLS3 values ((31,31))")
        result = db.execute('retrieve (member(31, "HOLS3") as hit)')
        assert result.rows[0]["hit"] is True

    def test_missing_as_or_values(self, db):
        with pytest.raises(QueryError):
            db.execute("define calendar BAD granularity DAYS")
