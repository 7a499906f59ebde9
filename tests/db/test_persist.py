"""Round-trip tests for JSON persistence."""

import copy
import dataclasses
import json
import math
import os
import pathlib
import stat
import sys

from unittest import mock

import pytest

from repro.catalog.registry import CalendarRegistry
from repro.core.matcache import MaterialisationCache
from repro.core.periodic import PeriodicSet
from repro.db import Database, DatabaseError, persist
from repro.db.errors import RuleError
from repro.db.persist import (
    decode_node,
    decode_periodic_set,
    dump_database,
    encode_node,
    encode_periodic_set,
    load_database,
    restore_database,
    save_database,
)
from repro.db.ql.parser import parse_statement
from repro.db.ql.printer import render_statement
from repro.db.storage import Relation
from repro.obs.instrument import get_default_instrumentation
from repro.rules import RuleManager
from repro.rules.tables import RuleTables
from repro.rules.temporal import TemporalRule
from repro.session import Session


class TestStatementPrinter:
    @pytest.mark.parametrize("text", [
        "retrieve (s.name, s.hours * 2 as d) from s in students "
        "where s.hours > 20",
        "retrieve unique (s.name) from s in students order by name desc",
        'retrieve into sink (s.name) from s in students on "Mondays"',
        'append audit (msg = new.name || "!")',
        "replace s (hours = s.hours + 1) from s in students "
        "where s.name = \"al\"",
        "delete s from s in students where s.hours < 1",
    ])
    def test_roundtrip(self, text):
        stmt = parse_statement(text)
        assert parse_statement(render_statement(stmt)) == stmt


@pytest.fixture()
def populated(db):
    manager = RuleManager(db)
    db.create_table("students", [("name", "text"), ("hours", "int4"),
                                 ("week", "abstime")],
                    key=("name",), valid_time_column="week")
    db.create_index("students", "hours")
    db.create_table("audit", [("msg", "text")])
    base = db.system.day_of("Feb 1 1993")
    for i, name in enumerate(["ana", "bo", "cara"]):
        db.insert("students", name=name, hours=10 * (i + 1),
                  week=base + 7 * i)
    manager.declare_event(
        "watch", event="append", relation="students",
        condition="new.hours > 20",
        actions=['append audit (msg = new.name)'])
    manager.declare_temporal(
        "tuesdays", expression="[2]/DAYS:during:WEEKS",
        actions=['append audit (msg = "tick")'],
        after=base)
    db.calendars.define("SEMESTER", values=[(base, base + 100)],
                        granularity="DAYS", lifespan=(1993.0, 1993.0))
    return db


class TestRoundTrip:
    def test_relations_survive(self, populated, tmp_path):
        path = tmp_path / "db.json"
        save_database(populated, str(path))
        loaded = load_database(str(path))
        rows = loaded.execute(
            "retrieve (s.name, s.hours) from s in students order by name")
        assert [(r["name"], r["hours"]) for r in rows.rows] == [
            ("ana", 10), ("bo", 20), ("cara", 30)]

    def test_schema_details_survive(self, populated, tmp_path):
        path = tmp_path / "db.json"
        save_database(populated, str(path))
        loaded = load_database(str(path))
        schema = loaded.relation("students").schema
        assert schema.key == ("name",)
        assert schema.valid_time_column == "week"
        assert "hours" in loaded.relation("students").indexes

    def test_rows_restore_in_one_batch_per_relation(self, populated,
                                                    tmp_path):
        path = tmp_path / "db.json"
        save_database(populated, str(path))
        batches = []
        insert_many = Relation.insert_many

        def spy(relation, values, fire_hooks=True):
            batches.append((relation.name, len(values)))
            return insert_many(relation, values, fire_hooks=fire_hooks)

        with mock.patch.object(Relation, "insert_many", spy):
            loaded = load_database(str(path))
        assert ("students", 3) in batches and ("audit", 0) in batches
        # The valid-time index came back with the rows, in (key, tid)
        # order.
        students = loaded.relation("students")
        keys, tids = students.indexes["week"].items()
        assert list(zip(keys, tids)) == sorted(
            (row["week"], row["_tid"]) for row in students.scan())

    def test_calendars_survive(self, populated, tmp_path):
        path = tmp_path / "db.json"
        save_database(populated, str(path))
        loaded = load_database(str(path))
        assert "SEMESTER" in loaded.calendars
        assert "Tuesdays" in loaded.calendars
        record = loaded.calendars.record("SEMESTER")
        assert record.lifespan == (1993.0, 1993.0)
        original = populated.calendars.evaluate(
            "Tuesdays", window=("Jan 1 1993", "Mar 1 1993"))
        again = loaded.calendars.evaluate(
            "Tuesdays", window=("Jan 1 1993", "Mar 1 1993"))
        assert original.to_pairs() == again.to_pairs()

    def test_event_rule_fires_after_reload(self, populated, tmp_path):
        path = tmp_path / "db.json"
        save_database(populated, str(path))
        loaded = load_database(str(path))
        loaded.execute('append students (name = "dee", hours = 99, '
                       'week = 3000)')
        audit = loaded.execute("retrieve (a.msg) from a in audit")
        assert audit.column("msg") == ["dee"]

    def test_temporal_rule_schedule_survives(self, populated, tmp_path):
        manager = populated.rule_manager
        expected = manager.tables.next_fire_of("tuesdays")
        path = tmp_path / "db.json"
        save_database(populated, str(path))
        loaded = load_database(str(path))
        assert loaded.rule_manager.tables.next_fire_of("tuesdays") == \
            expected

    def test_saves_with_tenant_and_priority_keys_still_load(
            self, populated, tmp_path):
        """Older saves tag every rule spec with a tenant and a priority;
        the loader ignores both keys, under the same format version."""
        expected = populated.rule_manager.tables.next_fire_of("tuesdays")
        payload, _ = dump_database(populated)
        assert payload["format"] == persist._FORMAT_VERSION == 1
        specs = payload["event_rules"] + payload["temporal_rules"]
        assert specs
        for spec in specs:
            assert "tenant" not in spec and "priority" not in spec
            spec.update(tenant="payroll", priority=5)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = load_database(str(path))
        assert set(loaded.rule_manager.event_rules) == {"watch"}
        assert loaded.rule_manager.tables.next_fire_of("tuesdays") == \
            expected
        # Armed: a daemon adopting the restored stack fires the rule at
        # that tick and not before.
        session = Session(database=loaded, clock_start=expected - 1)
        try:
            audit = "retrieve (a.msg) from a in audit"
            assert loaded.execute(audit).column("msg") == []
            session.cron.run_until(expected)
            assert loaded.execute(audit).column("msg") == ["tick"]
        finally:
            session.close()

    def test_callback_rules_reported_skipped(self, populated, tmp_path):
        populated.rule_manager.declare_event(
            "pyrule", event="delete", relation="students",
            callback=lambda d, e: None)
        report = save_database(populated, str(tmp_path / "db.json"))
        assert "pyrule" in report.skipped_rules
        assert report.event_rules == 1
        assert report.temporal_rules == 1

    def test_special_cell_values(self, db, tmp_path):
        from repro.core import Calendar, CivilDate
        db.create_table("mixed", [("d", "date"), ("c", "calendar"),
                                  ("f", "float8")])
        db.insert("mixed", d=CivilDate(1993, 11, 19),
                  c=Calendar.from_intervals([(1, 5), (9, 9)]),
                  f=math.inf)
        path = tmp_path / "db.json"
        save_database(db, str(path))
        loaded = load_database(str(path))
        row = loaded.relation("mixed").scan()[0]
        assert row["d"] == CivilDate(1993, 11, 19)
        assert row["c"].to_pairs() == ((1, 5), (9, 9))
        assert row["f"] == math.inf

    def test_order2_calendar_cell_rejected(self, db, tmp_path):
        from repro.core import Calendar
        nested = Calendar.from_calendars(
            [Calendar.from_intervals([(1, 2)])])
        db.create_table("bad", [("c", "calendar")])
        db.insert("bad", c=nested)
        with pytest.raises(DatabaseError):
            dump_database(db)

    def test_bad_format_rejected(self):
        with pytest.raises(DatabaseError):
            restore_database({"format": 999})


class TestCrashSafeSave:
    def test_failed_save_keeps_previous_file(self, populated, tmp_path,
                                             monkeypatch):
        path = tmp_path / "db.json"
        save_database(populated, str(path))
        query = "retrieve (s.name, s.hours) from s in students order by name"
        before = load_database(str(path)).execute(query).rows
        populated.insert("students", name="dee", hours=40,
                         week=populated.system.day_of("Mar 1 1993"))

        class CrashMidway:
            """The temporary file's handle; its write stops half-way."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.handle.__exit__(*exc)

            def write(self, text):
                self.handle.write(text[:len(text) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(persist, "open",
                            lambda *args, **kwargs: CrashMidway(
                                open(*args, **kwargs)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_database(populated, str(path))
        monkeypatch.undo()

        assert load_database(str(path)).execute(query).rows == before
        assert [p.name for p in tmp_path.iterdir()] == ["db.json"]

    def test_save_uses_the_c_encoder(self, populated, tmp_path):
        """A save never runs the pure-Python encoder, which any
        indentation would select."""
        with mock.patch("json.encoder._make_iterencode",
                        side_effect=AssertionError("pure-Python encoder")):
            save_database(populated, str(tmp_path / "db.json"))
        assert load_database(str(tmp_path / "db.json")).relation(
            "students") is not None

    def test_indented_file_still_loads(self, populated, tmp_path):
        """Files written with the former ``indent=1`` layout load."""
        path = tmp_path / "db.json"
        compact = tmp_path / "compact.json"
        payload, _ = dump_database(populated)
        path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
        save_database(populated, str(compact))
        assert json.loads(compact.read_text(encoding="utf-8")) == \
            json.loads(path.read_text(encoding="utf-8"))
        query = "retrieve (s.name, s.hours) from s in students order by name"
        assert load_database(str(path)).execute(query).rows == \
            load_database(str(compact)).execute(query).rows

    def test_save_replaces_existing_file_keeping_its_mode(
            self, populated, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("stale")
        os.chmod(path, 0o640)
        save_database(populated, str(path))
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
        loaded = load_database(str(path))
        assert len(loaded.relation("students")) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["db.json"]


class TestAsOfRendering:
    def test_as_of_roundtrips_through_printer(self):
        stmt = parse_statement(
            "retrieve (p.x) from p in prices as of 7 where p.x > 0")
        assert "as of 7" in render_statement(stmt)
        assert parse_statement(render_statement(stmt)) == stmt


# -- restoring the stored compiled form ---------------------------------------

DATA = pathlib.Path(__file__).parent / "data"
PERFBENCH = pathlib.Path(__file__).parents[2] / "perfbench"

#: Jan 1 1993 on the Jan 1 1987 epoch.
FIRST_TICK = 2193

#: The PeriodicSet fields a compile sets.
SET_FIELDS = [f.name for f in dataclasses.fields(PeriodicSet) if f.init]


def _rules_session() -> Session:
    """The database ``data/format1_rules.json`` holds: written by
    ``save_database(_rules_session().db, ...)`` before parsed actions and
    compiled sets were stored.  Rules over compiled, declined and
    finite expressions, one disabled, one catching up ``latest``, one
    (``y1992``) with no next fire, all fired for 20 days."""
    session = Session("Jan 1 1987", holiday_years=(1992, 1994),
                      clock_start=FIRST_TICK)
    db = session.db
    db.create_table("fire_log", [("rule", "text"), ("t", "abstime")])
    db.create_table("staff", [("name", "text"), ("hours", "int4"),
                              ("week", "abstime")],
                    key=("name",), valid_time_column="week")
    db.create_table("audit", [("msg", "text")])
    for i, name in enumerate(("ana", "bo", "cara")):
        db.insert("staff", name=name, hours=10 * (i + 1),
                  week=FIRST_TICK + 7 * i)
    rules = session.rules
    rules.on_event("watch", event="append", relation="staff",
                   where="new.hours > 20",
                   do=['append audit (msg = new.name || "!")'])
    db.insert("staff", name="dee", hours=40, week=FIRST_TICK + 21)
    for name, expression in (
            ("tue", "[2]/DAYS:during:WEEKS"),
            ("bus", "([3]/DAYS:during:WEEKS) - HOLIDAYS"),
            ("month", "[1]/AM_BUS_DAYS:during:MONTHS"),
            ("decade", "[2]/DAYS:during:WEEKS:during:DECADES"),
            ("y1993", "[5]/DAYS:during:WEEKS:during:1993/YEARS"),
            ("y1992", "[5]/DAYS:during:WEEKS:during:1992/YEARS")):
        rules.on_calendar(name, expression=expression,
                          do=[f'append fire_log (rule = "{name}", '
                              f't = now.t)'],
                          catchup="latest" if name == "bus" else "all")
    session.manager.temporal_rules["decade"].enabled = False
    session.cron.run_until(FIRST_TICK + 20)
    return session


@pytest.fixture()
def rules_session():
    session = _rules_session()
    yield session
    session.close()


def _user_rows(db) -> dict:
    """What the user stored (perfbench's ``harness.user_rows``): catalog
    records, the action rules with their next fires, and every user
    relation's rows projected on the schema and sorted."""
    manager = db.rule_manager
    out = {
        "catalog": sorted(
            (record.name, record.derivation_script,
             None if record.values is None else record.values.to_pairs())
            for record in db.calendars.table),
        "action_rules": sorted(
            (name, rule.expression_text, manager.tables.next_fire_of(name))
            for name, rule in manager.temporal_rules.items()
            if rule.actions)}
    for name in db.relation_names():
        if name.startswith("pg_") or name in ("rule_info", "rule_time"):
            continue
        columns = db.relation(name).schema.column_names()
        out[name] = sorted((tuple(row.get(c) for c in columns)
                            for row in db.relation(name).scan()), key=repr)
    return out


def _rule_tables(db) -> dict:
    """RULE_INFO and RULE_TIME rows in scan order, the rules' flags and
    next fires."""
    manager = db.rule_manager

    def rows(name):
        return [{k: v for k, v in row.items() if not k.startswith("_")}
                for row in db.relation(name).scan()]

    return {"rule_info": rows("rule_info"), "rule_time": rows("rule_time"),
            "rules": [(name, rule.enabled, rule.catchup, rule.actions,
                       manager.tables.next_fire_of(name))
                      for name, rule in manager.temporal_rules.items()],
            "events": [(name, rule.enabled, rule.condition, rule.actions)
                       for name, rule in manager.event_rules.items()]}


def _restore_one_by_one(payload: dict) -> Database:
    """The restore before rules were registered in one batch: every
    rule declared (its action text parsed, its expression compiled, its
    next trigger computed), then the saved next fires written."""
    bare = dict(payload, event_rules=[], temporal_rules=[])
    bare.pop("periodic_sets", None)
    db = restore_database(bare)
    manager = RuleManager(db)
    for spec in payload["event_rules"]:
        manager.declare_event(
            spec["name"], event=spec["event"], relation=spec["relation"],
            condition=spec["condition"],
            actions=spec["actions"]).enabled = spec["enabled"]
    for spec in payload["temporal_rules"]:
        manager.declare_temporal(
            spec["name"], expression=spec["expression"],
            actions=spec["actions"],
            catchup=spec["catchup"]).enabled = spec["enabled"]
    manager.tables.set_next_fires(
        [(spec["name"], spec["next_fire"])
         for spec in payload["temporal_rules"]])
    return db


def _stored_paths() -> int:
    metrics = get_default_instrumentation().metrics
    return metrics.counter("periodic.compile",
                           labels=("path",)).labels("stored").value


def _fresh_compile(text: str, holiday_years=(1987, 2016)):
    """``text`` compiled by a new registry on a private cache."""
    return Session("Jan 1 1987", holiday_years=holiday_years,
                   matcache=MaterialisationCache()).registry.periodic_set(
                       text)


def _assert_same_set(got, want, text):
    if want is None:
        assert got is None, text
        return
    assert got is not None, text
    for name in SET_FIELDS:
        assert getattr(got, name) == getattr(want, name), (text, name)


class TestFormat1Fixture:
    def test_fixture_predates_the_stored_forms(self):
        payload = json.loads((DATA / "format1_rules.json").read_text())
        assert payload["format"] == 1
        assert "periodic_sets" not in payload
        assert not any("action_nodes" in spec
                       for spec in payload["event_rules"]
                       + payload["temporal_rules"])

    def test_fixture_loads_to_the_same_rows(self, rules_session):
        loaded = load_database(str(DATA / "format1_rules.json"))
        assert _user_rows(loaded) == _user_rows(rules_session.db)
        payload = json.loads((DATA / "format1_rules.json").read_text())
        assert _rule_tables(loaded) == \
            _rule_tables(_restore_one_by_one(payload))

    def test_fixture_and_a_fresh_save_load_alike(self, rules_session,
                                                 tmp_path):
        path = tmp_path / "db.json"
        save_database(rules_session.db, str(path))
        fresh = load_database(str(path))
        old = load_database(str(DATA / "format1_rules.json"))
        assert _user_rows(fresh) == _user_rows(old)
        assert _rule_tables(fresh) == _rule_tables(old)


class TestStoredSets:
    def test_sets_stored_for_rule_expressions_only(self, rules_session,
                                                   populated):
        payload, _ = dump_database(rules_session.db)
        stored = payload["periodic_sets"]
        assert list(stored["sets"]) == [
            spec["expression"] for spec in payload["temporal_rules"]]
        assert stored["sets"]["[2]/DAYS:during:WEEKS:during:DECADES"] is \
            None  # a decline
        # No rules, no sets: a calendar-only file does not grow.
        populated.rule_manager.drop_rule("tuesdays")
        assert "periodic_sets" not in dump_database(populated)[0]
        no_rules = Database(calendars=populated.calendars)
        assert "periodic_sets" not in dump_database(no_rules)[0]

    def test_stored_set_equals_a_fresh_compile_for_every_dbcron_text(self):
        sys.path.insert(0, str(PERFBENCH))
        try:
            import wl_dbcron
        finally:
            sys.path.remove(str(PERFBENCH))
        texts = list(dict.fromkeys(
            [text for _, exprs in wl_dbcron.MIX for text, _ in exprs]
            + [text for text, _ in wl_dbcron.FAR_FUTURE]))
        session = Session("Jan 1 1987", holiday_years=(1987, 2016),
                          matcache=MaterialisationCache())
        for i, text in enumerate(texts):
            session.rules.on_calendar(f"r{i}", expression=text,
                                      do=['retrieve (x = 1)'])
        payload = json.loads(json.dumps(dump_database(session.db)[0]))
        stored = payload["periodic_sets"]["sets"]
        assert list(stored) == texts
        assert sum(encoded is None for encoded in stored.values()) == 4
        for text in texts:
            _assert_same_set(decode_periodic_set(text, stored[text]),
                             _fresh_compile(text), text)
        session.close()

    def test_codec_round_trip_keeps_every_field(self):
        pset = PeriodicSet(period=7, offsets=((1, 2), (5, 5)),
                           patch_window=(-4, 30), patch=((-3, 1), (9, 9)),
                           elements=((1, 2), (5, 5)),
                           patch_elements=((9, 9), (-3, 1)),
                           exact_elements=True, source="x")
        encoded = json.loads(json.dumps(encode_periodic_set(pset)))
        assert encoded["offsets"] == [1, 2, 5, 5]
        assert decode_periodic_set("x", encoded) == pset
        assert encode_periodic_set(None) is None
        assert decode_periodic_set("x", None) is None

    def test_load_serves_stored_sets_without_compiling(self, rules_session,
                                                       tmp_path):
        path = tmp_path / "db.json"
        save_database(rules_session.db, str(path))
        before = _stored_paths()
        compile_ = CalendarRegistry._compile_periodic
        with mock.patch.object(CalendarRegistry, "_compile_periodic",
                               autospec=True,
                               side_effect=compile_) as compiles, \
                mock.patch("repro.rules.temporal.parse_statement",
                           side_effect=AssertionError("parsed")), \
                mock.patch("repro.rules.rule.parse_statement",
                           side_effect=AssertionError("parsed")):
            loaded = load_database(str(path))
            for text in {r.expression_text for r in
                         loaded.rule_manager.temporal_rules.values()}:
                loaded.calendars.periodic_set(text)
        assert compiles.call_count == 0
        assert _stored_paths() - before == 6

    def test_edited_holidays_recompile_instead(self, rules_session):
        text = "([3]/DAYS:during:WEEKS) - HOLIDAYS"
        payload, _ = dump_database(rules_session.db)
        stored = decode_periodic_set(text,
                                     payload["periodic_sets"]["sets"][text])
        wednesday = FIRST_TICK + 26   # Wed Jan 27 1993, no holiday
        assert stored.contains(wednesday)
        holidays = next(cal for cal in payload["calendars"]
                        if cal["name"] == "HOLIDAYS")
        holidays["values"] = sorted(holidays["values"]
                                    + [[wednesday, wednesday]])
        before = _stored_paths()
        with mock.patch.object(CalendarRegistry, "install_periodic") as spy:
            loaded = restore_database(copy.deepcopy(payload))
        spy.assert_not_called()
        assert _stored_paths() == before
        recompiled = loaded.calendars.periodic_set(text)
        assert not recompiled.contains(wednesday)
        assert recompiled.contains(wednesday + 7)
        # The same file with its catalog untouched serves the stored set.
        payload["calendars"] = dump_database(rules_session.db)[0][
            "calendars"]
        served = restore_database(payload).calendars.periodic_set(text)
        _assert_same_set(served, stored, text)


class TestStoredActions:
    TEXTS = [
        "retrieve (s.name, s.hours * 2 as d) from s in students "
        "where s.hours > 20",
        "retrieve unique (s.name) from s in students order by name desc",
        'retrieve into sink (s.name) from s in students on "Mondays"',
        "retrieve (p.x) from p in prices as of 7 where not p.x < -1.5",
        'append audit (msg = new.name || "!", ok = true, n = f(1, -x.y))',
        'replace s (hours = s.hours + 1) from s in students '
        'where s.name = "al"',
        "delete s from s in students where s.hours < 1",
        "create table t (a int4, b abstime) key (a) valid time b",
        "create index on t (a)",
        "drop table t",
        'define calendar C as "[2]/DAYS:during:WEEKS" granularity days',
        "define calendar V values ((1, 5), (-3, -1))",
        'define rule r on calendar "[2]/DAYS:during:WEEKS" '
        'do (append log (t = now.t))',
        "define rule w on append to students where new.hours > 2 "
        "do (delete s from s in students where s.hours = 0)",
        "drop rule r",
    ]

    @pytest.mark.parametrize("text", TEXTS)
    def test_decoded_action_equals_the_parsed_one(self, text):
        parsed = parse_statement(text)
        decoded = decode_node(json.loads(json.dumps(encode_node(parsed))))
        assert decoded == parsed
        if text.split()[0] in ("retrieve", "append", "replace", "delete"):
            # The statements the printer renders (rule actions).
            assert render_statement(decoded) == render_statement(parsed)

    def test_every_node_kind_round_trips(self):
        from repro.db.ql import ast
        stmt = ast.Append("t", (("a", ast.VarRef("v")),
                                ("b", ast.Const(None))))
        encoded = json.loads(json.dumps(encode_node(stmt)))
        assert decode_node(encoded) == stmt
        seen = set()

        def kinds(value):
            if isinstance(value, dict):
                seen.add(value["@"])
            for item in (value.values() if isinstance(value, dict)
                         else value if isinstance(value, list) else ()):
                kinds(item)

        for text in self.TEXTS:
            kinds(encode_node(parse_statement(text)))
        kinds(encoded)
        assert seen == set(persist._NODES)

    def test_saved_rules_carry_their_parsed_actions(self, rules_session):
        payload, _ = dump_database(rules_session.db)
        for spec in payload["event_rules"] + payload["temporal_rules"]:
            assert [decode_node(node) for node in spec["action_nodes"]] == \
                [parse_statement(text) for text in spec["actions"]]


class TestCorruptStoredForms:
    @pytest.fixture()
    def payload(self, rules_session):
        return json.loads(json.dumps(dump_database(rules_session.db)[0]))

    @staticmethod
    def _set(payload, text="[2]/DAYS:during:WEEKS"):
        return payload["periodic_sets"]["sets"][text]

    @pytest.mark.parametrize("change", [
        lambda nodes: nodes[0].update({"@": "Bogus"}),
        lambda nodes: nodes[0].update({"@": 7}),
        lambda nodes: nodes[0].pop("@"),
        lambda nodes: nodes[0].update({"colour": "red"}),
        lambda nodes: nodes[0].pop("relation"),
        lambda nodes: nodes[0]["assignments"][0].append({"a": 1}),
        lambda nodes: nodes.__setitem__(0, {"@": "Const", "value": 1}),
        lambda nodes: nodes.__setitem__(0, "append x (a = 1)"),
    ], ids=["unknown-node", "non-string-node", "no-node", "unknown-field",
            "missing-field", "untagged-object", "not-a-statement",
            "bare-text"])
    @pytest.mark.parametrize("kind", ["temporal_rules", "event_rules"])
    def test_corrupted_action_node_raises(self, payload, kind, change):
        change(payload[kind][0]["action_nodes"])
        with pytest.raises(DatabaseError):
            restore_database(payload)

    def test_action_nodes_not_a_list_raises(self, payload):
        payload["temporal_rules"][0]["action_nodes"] = {"@": "Append"}
        with pytest.raises(DatabaseError):
            restore_database(payload)

    @pytest.mark.parametrize("change", [
        lambda s: s.update(period=-7),
        lambda s: s.update(period=True),
        lambda s: s.update(period="7"),
        lambda s: s.update(offsets=[1, 2, 5]),
        lambda s: s.update(offsets=[1, 2.0]),
        lambda s: s.update(offsets=[[1, 2]]),
        lambda s: s.update(elements=[5, 5, 1, 2]),
        lambda s: s.update(patch_window=[1]),
        lambda s: s.update(granularity="FORTNIGHTS"),
        lambda s: s.update(exact_elements=1),
        lambda s: s.update(colour="red"),
        lambda s: s.pop("patch"),
    ], ids=["negative-period", "bool-period", "text-period", "odd-lane",
            "float-in-lane", "nested-lane", "unsorted-elements",
            "short-window", "unknown-granularity", "int-flag",
            "unknown-field", "missing-field"])
    def test_corrupted_set_field_raises(self, payload, change):
        change(self._set(payload))
        with pytest.raises(DatabaseError):
            restore_database(payload)

    @pytest.mark.parametrize("section", [[], "sets", {"sets": []}])
    def test_corrupted_sets_section_raises(self, payload, section):
        payload["periodic_sets"] = section
        with pytest.raises(DatabaseError):
            restore_database(payload)


class TestBatchedRestore:
    def test_one_batch_and_no_next_trigger(self, rules_session, tmp_path):
        path = tmp_path / "db.json"
        save_database(rules_session.db, str(path))
        batches, rows, pairs, notices = [], [], [], []
        insert, insert_many = Relation.insert, Relation.insert_many
        set_next_fires = RuleTables.set_next_fires

        def spy_insert_many(relation, values, fire_hooks=True):
            batches.append((relation.name, len(values)))
            return insert_many(relation, values, fire_hooks=fire_hooks)

        def spy_insert(relation, values, fire_hooks=True):
            rows.append(relation.name)
            return insert(relation, values, fire_hooks=fire_hooks)

        def spy_pairs(tables, changes):
            pairs.append(list(changes))
            return set_next_fires(tables, changes)

        with mock.patch.object(Relation, "insert_many", spy_insert_many), \
                mock.patch.object(Relation, "insert", spy_insert), \
                mock.patch.object(RuleTables, "set_next_fires", spy_pairs), \
                mock.patch.object(TemporalRule, "next_trigger",
                                  side_effect=AssertionError("computed")), \
                mock.patch.object(RuleManager, "_notify_schedule",
                                  autospec=True,
                                  side_effect=lambda m, c: notices.append(c)):
            loaded = load_database(str(path))
        assert ("rule_info", 6) in batches and "rule_info" not in rows
        assert len(pairs) == 1 and len(notices) == 1
        assert pairs[0] == notices[0] == [
            (name, rules_session.manager.tables.next_fire_of(name))
            for name in rules_session.manager.temporal_rules]
        payload = json.loads(path.read_text())
        assert _rule_tables(loaded) == \
            _rule_tables(_restore_one_by_one(payload))

    def test_restored_rules_fire_at_the_original_ticks(self, rules_session,
                                                       tmp_path):
        path = tmp_path / "db.json"
        save_database(rules_session.db, str(path))
        loaded = load_database(str(path))
        now = rules_session.clock.now
        restored = Session(database=loaded, clock_start=now)
        try:
            for session in (rules_session, restored):
                session.cron.run_until(now + 400)
            query = "retrieve (f.rule, f.t) from f in fire_log"
            fired = [sorted(tuple(row.values()) for row in
                            session.db.execute(query).rows)
                     for session in (rules_session, restored)]
            assert fired[0] == fired[1]
            assert {rule for rule, _ in fired[0]} == {
                "tue", "bus", "month", "y1993"}
            assert _rule_tables(loaded) == _rule_tables(rules_session.db)
        finally:
            restored.close()

    def test_duplicate_rule_names_are_refused(self, rules_session):
        payload, _ = dump_database(rules_session.db)
        payload["temporal_rules"].append(payload["temporal_rules"][0])
        with pytest.raises(RuleError, match="already defined"):
            restore_database(payload)
