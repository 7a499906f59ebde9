"""Round-trip tests for JSON persistence."""

import json
import math
import os
import stat

from unittest import mock

import pytest

from repro.db import Database, DatabaseError, persist
from repro.db.persist import (
    dump_database,
    load_database,
    restore_database,
    save_database,
)
from repro.db.ql.parser import parse_statement
from repro.db.ql.printer import render_statement
from repro.db.storage import Relation
from repro.rules import RuleManager
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
