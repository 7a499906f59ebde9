"""JSON persistence for databases, calendars and rules.

An in-memory substrate still needs durability: :func:`save_database`
serialises a whole :class:`~repro.db.database.Database` — calendar system
epoch, CALENDARS catalog (derivation scripts and explicit values),
relations (schemas, rows, indexes) and rules (as Postquel text) — and
:func:`load_database` reconstructs it, recompiling every derivation
script and rule through the normal pipeline.

Cell values may be ints, floats, strings, booleans, None,
:class:`~repro.core.chrono.CivilDate` and order-1
:class:`~repro.core.calendar.Calendar` values (tagged encodings).
Rules defined with Python callbacks cannot be serialised; they are
reported in the save result so callers can re-attach them.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import uuid
from dataclasses import dataclass, field

from repro.catalog.registry import CalendarRegistry
from repro.core.basis import CalendarSystem
from repro.core.calendar import Calendar
from repro.core.chrono import CivilDate
from repro.db.database import Database
from repro.db.errors import DatabaseError
from repro.db.ql.printer import render_statement

__all__ = ["save_database", "load_database", "dump_database",
           "restore_database", "SaveReport"]

_FORMAT_VERSION = 1
_SYSTEM_RELATIONS = ("pg_class", "pg_attribute")


@dataclass
class SaveReport:
    """What was persisted and what could not be."""

    relations: int = 0
    calendars: int = 0
    event_rules: int = 0
    temporal_rules: int = 0
    skipped_rules: list = field(default_factory=list)


def _encode_value(value):
    if isinstance(value, CivilDate):
        return {"__date__": [value.year, value.month, value.day]}
    if isinstance(value, Calendar):
        if value.order != 1:
            raise DatabaseError(
                "only order-1 calendar cells can be persisted")
        return {"__calendar__": list(map(list, value.to_pairs()))}
    if isinstance(value, float) and not math.isfinite(value):
        return {"__float__": repr(value)}
    return value


def _decode_value(value):
    if isinstance(value, dict):
        if "__date__" in value:
            return CivilDate(*value["__date__"])
        if "__calendar__" in value:
            return Calendar.from_intervals(
                [tuple(p) for p in value["__calendar__"]])
        if "__float__" in value:
            return float(value["__float__"])
    return value


def _encode_lifespan(lifespan):
    lo, hi = lifespan
    return [None if lo == -math.inf else lo,
            None if hi == math.inf else hi]


def _decode_lifespan(encoded):
    if encoded is None:
        return None
    lo, hi = encoded
    return (-math.inf if lo is None else lo,
            math.inf if hi is None else hi)


def dump_database(db: Database) -> tuple[dict, SaveReport]:
    """Serialise ``db`` to a JSON-compatible dict."""
    report = SaveReport()
    epoch = db.system.epoch.date
    payload: dict = {
        "format": _FORMAT_VERSION,
        "epoch": [epoch.year, epoch.month, epoch.day],
        "default_window": list(db.calendars.default_window),
        "calendars": [],
        "relations": [],
        "series": [],
        "event_rules": [],
        "temporal_rules": [],
    }
    for name, series in sorted(getattr(db.calendars,
                                       "_registered_series", {}).items()):
        payload["series"].append({
            "name": name,
            "calendar": list(map(list, series.calendar.to_pairs())),
            "values": list(series.values),
            "anchor": series.anchor,
        })
    for record in db.calendars.table:
        payload["calendars"].append({
            "name": record.name,
            "script": record.derivation_script,
            "values": (list(map(list, record.values.to_pairs()))
                       if record.values is not None else None),
            "granularity": (record.granularity.name
                            if record.granularity else None),
            "lifespan": _encode_lifespan(record.lifespan),
        })
        report.calendars += 1
    for name in db.relation_names():
        if name in _SYSTEM_RELATIONS or name in ("rule_info", "rule_time"):
            continue
        relation = db.relation(name)
        schema = relation.schema
        payload["relations"].append({
            "name": name,
            "columns": [[c.name, c.type_name] for c in schema.columns],
            "key": list(schema.key),
            "valid_time_column": schema.valid_time_column,
            "indexes": sorted(relation.indexes),
            "rows": [
                {k: _encode_value(v) for k, v in row.items()
                 if k != "_tid"}
                for row in relation.scan()],
        })
        report.relations += 1
    manager = db.rule_manager
    if manager is not None:
        for name, rule in manager.event_rules.items():
            if rule.callback is not None or callable(rule.condition):
                report.skipped_rules.append(name)
                continue
            payload["event_rules"].append({
                "name": name,
                "event": rule.event,
                "relation": rule.relation,
                "condition": (str(rule.condition)
                              if rule.condition is not None else None),
                "actions": [render_statement(a) for a in rule.actions],
                "enabled": rule.enabled,
            })
            report.event_rules += 1
        for name, rule in manager.temporal_rules.items():
            if rule.callback is not None:
                report.skipped_rules.append(name)
                continue
            payload["temporal_rules"].append({
                "name": name,
                "expression": rule.expression_text,
                "actions": [render_statement(a) for a in rule.actions],
                "enabled": rule.enabled,
                "next_fire": manager.tables.next_fire_of(name),
                "catchup": rule.catchup,
            })
            report.temporal_rules += 1
    return payload, report


def restore_database(payload: dict) -> Database:
    """Rebuild a database from :func:`dump_database` output.

    Derivation scripts and rules go through the normal parse/factorize/
    compile pipeline; a rule manager is attached when the payload holds
    any rules.
    """
    if payload.get("format") != _FORMAT_VERSION:
        raise DatabaseError(
            f"unsupported persistence format {payload.get('format')!r}")
    system = CalendarSystem.starting(CivilDate(*payload["epoch"]))
    registry = CalendarRegistry(system)
    registry.default_window = tuple(payload["default_window"])
    db = Database(calendars=registry)
    for cal in payload["calendars"]:
        registry.define(
            cal["name"],
            script=cal["script"],
            values=([tuple(p) for p in cal["values"]]
                    if cal["values"] is not None else None),
            granularity=cal["granularity"],
            lifespan=_decode_lifespan(cal["lifespan"]))
    for spec in payload.get("series", ()):
        from repro.timeseries.integration import register_series
        from repro.timeseries.series import RegularTimeSeries
        register_series(
            registry,
            RegularTimeSeries(
                Calendar.from_intervals([tuple(p)
                                         for p in spec["calendar"]]),
                spec["values"], name=spec["name"],
                anchor=spec["anchor"]),
            name=spec["name"])
    for rel in payload["relations"]:
        relation = db.create_table(
            rel["name"], [tuple(c) for c in rel["columns"]],
            key=tuple(rel["key"]),
            valid_time_column=rel["valid_time_column"])
        # One batch: the valid-time index is built by one sort and merge,
        # not maintained row by row.
        relation.insert_many([{k: _decode_value(v) for k, v in row.items()}
                              for row in rel["rows"]], fire_hooks=False)
        for column in rel["indexes"]:
            db.create_index(rel["name"], column)
    if payload["event_rules"] or payload["temporal_rules"]:
        from repro.rules.manager import RuleManager
        manager = RuleManager(db)
        for spec in payload["event_rules"]:
            rule = manager.declare_event(
                spec["name"], event=spec["event"],
                relation=spec["relation"],
                condition=spec["condition"], actions=spec["actions"])
            rule.enabled = spec["enabled"]
        for spec in payload["temporal_rules"]:
            rule = manager.declare_temporal(
                spec["name"], expression=spec["expression"],
                actions=spec["actions"],
                catchup=spec.get("catchup", "all"))
            rule.enabled = spec["enabled"]
        # The saved next fires replace the declared ones in one write.
        manager.tables.set_next_fires(
            [(spec["name"], spec["next_fire"])
             for spec in payload["temporal_rules"]])
    return db


def save_database(db: Database, path: str) -> SaveReport:
    """Serialise ``db`` to a JSON file; returns what was saved/skipped.

    The document is compact (no indentation or spaces after
    separators), which lets :func:`json.dumps` use CPython's C encoder;
    :func:`load_database` reads indented files written before as well.

    Crash-safe: the payload goes to a temporary file in the target's
    directory, is flushed and fsynced, then atomically replaces
    ``path``.  A failure part-way leaves the previous file untouched
    (and removes the temporary one).
    """
    payload, report = dump_database(db)
    text = json.dumps(payload, separators=(",", ":"))
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        # Mode "x" creates the file like "w" would (umask applies).
        with open(tmp, "x", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    return report


def load_database(path: str) -> Database:
    """Load a database previously written by :func:`save_database`."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return restore_database(payload)
