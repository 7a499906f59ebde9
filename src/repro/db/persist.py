"""JSON persistence for databases, calendars and rules.

An in-memory substrate still needs durability: :func:`save_database`
serialises a whole :class:`~repro.db.database.Database` — calendar system
epoch, CALENDARS catalog (derivation scripts and explicit values),
relations (schemas, rows, indexes) and rules — and :func:`load_database`
reconstructs it.

Calendar derivation scripts go through the normal pipeline again.  Rules
are restored from what was compiled when they were saved, as the paper's
RULE-INFO keeps each rule's compiled form beside its text:

* each rule's actions are stored twice: as Postquel text, and parsed,
  as the :mod:`repro.db.ql.ast` dataclasses in a small generic JSON
  encoding (:func:`encode_node`), which the load decodes instead of
  parsing the text again;
* the full-tier :class:`~repro.core.periodic.PeriodicSet` of each
  distinct temporal-rule expression (``null`` for a decline) is stored
  with a digest of the file's ``epoch``/``default_window``/
  ``calendars``/``series`` sections; the load installs the sets into
  the registry's compile memo when the digest still matches and
  compiles as usual when the catalog was edited;
* the temporal rules are registered in one batch, each with its saved
  next fire (no next-trigger computation).

A file without the parsed actions or the stored sets (written before
they were added, same format version) loads through the parse and
compile path.

Cell values may be ints, floats, strings, booleans, None,
:class:`~repro.core.chrono.CivilDate` and order-1
:class:`~repro.core.calendar.Calendar` values (tagged encodings).
Rules defined with Python callbacks cannot be serialised; they are
reported in the save result so callers can re-attach them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import uuid
from dataclasses import dataclass, field, fields, is_dataclass

from repro.catalog.registry import CalendarRegistry
from repro.core.basis import CalendarSystem
from repro.core.calendar import Calendar
from repro.core.chrono import CivilDate
from repro.core.granularity import Granularity
from repro.core.periodic import PeriodicSet
from repro.db.database import Database
from repro.db.errors import DatabaseError
from repro.db.ql import ast as ql_ast
from repro.db.ql.printer import render_statement

__all__ = ["save_database", "load_database", "dump_database",
           "restore_database", "SaveReport", "encode_node", "decode_node",
           "encode_periodic_set", "decode_periodic_set"]

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


# -- parsed actions: the ql AST as JSON ---------------------------------------

#: The dataclass node types of :mod:`repro.db.ql.ast` by class name, and
#: each one's field names.
_NODES = {name: getattr(ql_ast, name) for name in ql_ast.__all__
          if is_dataclass(getattr(ql_ast, name))}
_FIELDS = {cls: tuple(f.name for f in fields(cls))
           for cls in _NODES.values()}
_SCALARS = frozenset((str, int, float, bool, type(None)))


def encode_node(value):
    """A ql AST value as JSON: a node is an object naming its class
    under ``"@"`` beside its fields, a tuple an array, a scalar itself.
    Raises :class:`DatabaseError` for anything else."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is tuple:
        return [encode_node(item) for item in value]
    names = _FIELDS.get(kind)
    if names is None:
        raise DatabaseError(
            f"cannot persist a {kind.__name__} inside a statement")
    out = {"@": kind.__name__}
    for name in names:
        out[name] = encode_node(getattr(value, name))
    return out


def decode_node(value):
    """The inverse of :func:`encode_node` (arrays become tuples).  An
    unknown node or field, or a missing one, raises
    :class:`DatabaseError`."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is list:
        return tuple(map(decode_node, value))
    if kind is not dict:
        raise DatabaseError(f"malformed statement value {value!r}")
    name = value.get("@")
    cls = _NODES.get(name) if type(name) is str else None
    if cls is None:
        raise DatabaseError(f"unknown statement node {name!r}")
    try:
        return cls(**{key: decode_node(item)
                      for key, item in value.items() if key != "@"})
    except TypeError as exc:
        raise DatabaseError(f"malformed {name} node: {exc}") from None


def _decode_actions(spec: dict) -> list:
    """A saved rule's actions: decoded when the parsed form is stored,
    else the action texts (parsed by the rule's ``define``)."""
    if "action_nodes" not in spec:
        return spec["actions"]
    nodes = spec["action_nodes"]
    if not isinstance(nodes, list):
        raise DatabaseError(f"rule {spec.get('name')!r}: action_nodes is "
                            f"not a list")
    actions = [decode_node(node) for node in nodes]
    for action in actions:
        if not isinstance(action, ql_ast.Statement):
            raise DatabaseError(f"rule {spec.get('name')!r}: stored action "
                                f"{action!r} is not a statement")
    return actions


# -- compiled periodic sets ---------------------------------------------------

#: Pair lanes of a PeriodicSet, stored as flat int lists.
_SET_LANES = ("offsets", "patch", "elements", "patch_elements")
_SET_KEYS = frozenset(("period", "patch_window", "granularity",
                       "exact_elements") + _SET_LANES)


def encode_periodic_set(pset: "PeriodicSet | None") -> "dict | None":
    """A compiled set's fields as JSON (``None`` stays ``None``, a
    decline); the pair lanes are flat int lists."""
    if pset is None:
        return None
    out = {"period": pset.period,
           "patch_window": (list(pset.patch_window)
                            if pset.patch_window is not None else None),
           "granularity": (pset.granularity.name
                           if pset.granularity is not None else None),
           "exact_elements": pset.exact_elements}
    for lane in _SET_LANES:
        out[lane] = [end for pair in getattr(pset, lane) for end in pair]
    return out


def decode_periodic_set(text: str, encoded) -> "PeriodicSet | None":
    """The inverse of :func:`encode_periodic_set`, with ``source`` set
    to ``text``; a wrong shape raises :class:`DatabaseError`."""
    if encoded is None:
        return None

    def bad(what: str):
        return DatabaseError(f"stored periodic set of {text!r}: {what}")

    if type(encoded) is not dict or set(encoded) != _SET_KEYS:
        raise bad("unexpected fields")
    period = encoded["period"]
    if type(period) is not int or period < 0:
        raise bad(f"period {period!r}")
    lanes = {}
    for lane in _SET_LANES:
        flat = encoded[lane]
        if type(flat) is not list or len(flat) % 2 or \
                not set(map(type, flat)) <= {int}:
            raise bad(f"{lane} is not a flat list of int pairs")
        ends = iter(flat)
        lanes[lane] = tuple(zip(ends, ends))
        # Probes bisect the starts of every lane but the patch elements.
        if lane != "patch_elements" and flat[::2] != sorted(flat[::2]):
            raise bad(f"{lane} is not sorted")
    window = encoded["patch_window"]
    if window is not None and not (
            type(window) is list and len(window) == 2
            and set(map(type, window)) == {int}):
        raise bad(f"patch_window {window!r}")
    name = encoded["granularity"]
    if name is not None and name not in Granularity.__members__:
        raise bad(f"granularity {name!r}")
    if type(encoded["exact_elements"]) is not bool:
        raise bad("exact_elements is not a boolean")
    return PeriodicSet(
        period=period,
        patch_window=tuple(window) if window is not None else None,
        granularity=Granularity[name] if name is not None else None,
        exact_elements=encoded["exact_elements"], source=text, **lanes)


def _catalog_digest(payload: dict) -> str:
    """Digest of the sections a compiled set depends on."""
    sections = [payload["epoch"], payload["default_window"],
                payload["calendars"], payload.get("series", [])]
    text = json.dumps(sections, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _stored_sets(payload: dict) -> "list | None":
    """The file's compiled sets as ``(text, set)`` pairs, or None when
    it stores none or its catalog sections changed since the save."""
    stored = payload.get("periodic_sets")
    if stored is None:
        return None
    if not isinstance(stored, dict) or \
            not isinstance(stored.get("sets"), dict):
        raise DatabaseError("malformed periodic_sets section")
    if stored.get("catalog_digest") != _catalog_digest(payload):
        return None
    return [(text, decode_periodic_set(text, encoded))
            for text, encoded in stored["sets"].items()]


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
            spec = {
                "name": name,
                "event": rule.event,
                "relation": rule.relation,
                "condition": (str(rule.condition)
                              if rule.condition is not None else None),
                "actions": [render_statement(a) for a in rule.actions],
                "enabled": rule.enabled,
            }
            _add_action_nodes(spec, rule.actions)
            payload["event_rules"].append(spec)
            report.event_rules += 1
        for name, rule in manager.temporal_rules.items():
            if rule.callback is not None:
                report.skipped_rules.append(name)
                continue
            spec = {
                "name": name,
                "expression": rule.expression_text,
                "actions": [render_statement(a) for a in rule.actions],
                "enabled": rule.enabled,
                "next_fire": manager.tables.next_fire_of(name),
                "catchup": rule.catchup,
            }
            _add_action_nodes(spec, rule.actions)
            payload["temporal_rules"].append(spec)
            report.temporal_rules += 1
    registry = db.calendars
    if payload["temporal_rules"] and registry.periodic:
        texts = dict.fromkeys(spec["expression"]
                              for spec in payload["temporal_rules"])
        payload["periodic_sets"] = {
            "catalog_digest": _catalog_digest(payload),
            "sets": {text: encode_periodic_set(registry.periodic_set(text))
                     for text in texts}}
    return payload, report


def _add_action_nodes(spec: dict, actions) -> None:
    """Store a rule's parsed actions beside their text, unless one holds
    a value the codec cannot write (the load then parses the text)."""
    try:
        spec["action_nodes"] = [encode_node(action) for action in actions]
    except DatabaseError:
        pass


def restore_database(payload: dict) -> Database:
    """Rebuild a database from :func:`dump_database` output.

    Derivation scripts go through the normal parse/factorize/compile
    pipeline.  Rules take their stored parsed actions and compiled
    sets when the payload has them (see the module docstring) and are
    registered in one batch with their saved next fires; a rule
    manager is attached when the payload holds any rules.
    """
    if payload.get("format") != _FORMAT_VERSION:
        raise DatabaseError(
            f"unsupported persistence format {payload.get('format')!r}")
    sets = _stored_sets(payload)
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
                condition=spec["condition"],
                actions=_decode_actions(spec))
            rule.enabled = spec["enabled"]
        if sets:
            # At the catalog version the rules are declared under.
            registry.install_periodic(sets)
        manager.restore_temporal([
            (spec["name"], spec["expression"], _decode_actions(spec),
             spec.get("catchup", "all"), spec["enabled"],
             spec["next_fire"])
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
