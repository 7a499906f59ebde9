"""Unit tests for schemas, relations and event hooks."""

import pytest

from repro.db import (
    Column,
    DataTypeError,
    IntegrityError,
    Relation,
    Schema,
    SchemaError,
    TypeRegistry,
)


def make_relation(key=(), valid_time=None):
    schema = Schema([("name", "text"), ("hours", "int4"),
                     ("day", "abstime")],
                    key=key, valid_time_column=valid_time)
    return Relation("students", schema, TypeRegistry())


class TestSchema:
    def test_columns(self):
        schema = Schema([("a", "int4"), Column("b", "text")])
        assert schema.column_names() == ["a", "b"]
        assert schema.column("b").type_name == "text"

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Schema([("a", "int4"), ("a", "text")])

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError):
            Schema([("a", "int4")], key=("b",))

    def test_unknown_valid_time_rejected(self):
        with pytest.raises(SchemaError):
            Schema([("a", "int4")], valid_time_column="t")

    def test_str(self):
        assert str(Schema([("a", "int4")])) == "(a : int4)"


class TestInsert:
    def test_insert_assigns_tid(self):
        rel = make_relation()
        row = rel.insert({"name": "alice", "hours": 10, "day": 1})
        assert row["_tid"] == 1
        assert len(rel) == 1

    def test_missing_columns_default_none(self):
        rel = make_relation()
        row = rel.insert({"name": "bo"})
        assert row["hours"] is None

    def test_type_checked(self):
        rel = make_relation()
        with pytest.raises(DataTypeError):
            rel.insert({"name": "x", "hours": "many"})

    def test_unknown_column_rejected(self):
        rel = make_relation()
        with pytest.raises(SchemaError):
            rel.insert({"name": "x", "salary": 1})

    def test_key_uniqueness(self):
        rel = make_relation(key=("name",))
        rel.insert({"name": "alice"})
        with pytest.raises(IntegrityError):
            rel.insert({"name": "alice"})

    def test_insert_many_key_checks(self):
        rel = make_relation(key=("name",))
        rel.insert({"name": "alice"})
        for batch in ([{"name": "bo"}, {"name": "alice"}],
                      [{"name": "bo"}, {"name": "cy"}, {"name": "bo"}]):
            with pytest.raises(IntegrityError,
                               match="duplicate key"):
                rel.insert_many(batch)
            assert [row["name"] for row in rel.scan()] == ["alice"]
        rows = rel.insert_many([{"name": "bo"}, {"name": "cy"}])
        assert [rel.tid_of((row["name"],)) for row in rows] == \
            [row["_tid"] for row in rows]


class TestDeleteUpdate:
    def test_delete(self):
        rel = make_relation()
        row = rel.insert({"name": "a"})
        rel.delete(row["_tid"])
        assert len(rel) == 0

    def test_delete_missing(self):
        rel = make_relation()
        with pytest.raises(IntegrityError):
            rel.delete(42)

    def test_update(self):
        rel = make_relation()
        row = rel.insert({"name": "a", "hours": 1})
        rel.update(row["_tid"], {"hours": 2})
        assert rel.get(row["_tid"])["hours"] == 2

    def test_update_keeps_key_check(self):
        rel = make_relation(key=("name",))
        rel.insert({"name": "a"})
        row = rel.insert({"name": "b"})
        with pytest.raises(IntegrityError):
            rel.update(row["_tid"], {"name": "a"})

    def test_update_same_tuple_key_ok(self):
        rel = make_relation(key=("name",))
        row = rel.insert({"name": "a", "hours": 1})
        rel.update(row["_tid"], {"hours": 9})  # no key change

    def test_truncate(self):
        rel = make_relation()
        rel.insert({"name": "a"})
        rel.truncate()
        assert len(rel) == 0


class TestEventHooks:
    def test_append_hook(self):
        rel = make_relation()
        seen = []
        rel.hooks["append"].append(seen.append)
        rel.insert({"name": "a"})
        assert len(seen) == 1
        assert seen[0].kind == "append"
        assert seen[0].new["name"] == "a"

    def test_delete_hook_gets_current(self):
        rel = make_relation()
        seen = []
        rel.hooks["delete"].append(seen.append)
        row = rel.insert({"name": "a"})
        rel.delete(row["_tid"])
        assert seen[0].current["name"] == "a"

    def test_replace_hook_gets_both(self):
        rel = make_relation()
        seen = []
        rel.hooks["replace"].append(seen.append)
        row = rel.insert({"name": "a", "hours": 1})
        rel.update(row["_tid"], {"hours": 2})
        event = seen[0]
        assert event.current["hours"] == 1
        assert event.new["hours"] == 2

    def test_retrieve_hook(self):
        rel = make_relation()
        seen = []
        rel.hooks["retrieve"].append(seen.append)
        row = rel.insert({"name": "a"})
        rel.notify_retrieve(row)
        assert seen[0].kind == "retrieve"

    def test_fire_hooks_false_suppresses(self):
        rel = make_relation()
        seen = []
        rel.hooks["append"].append(seen.append)
        rel.insert({"name": "a"}, fire_hooks=False)
        assert seen == []
