"""Heap storage: schemas, relations, and the database object.

Relations are in-memory heaps of dict-shaped tuples with a hidden ``_tid``.
Every mutating operation routes through event hooks so the rule system can
observe ``append`` / ``delete`` / ``replace`` / ``retrieve`` events exactly
like the POSTGRES rule system does (section 4).

A relation may declare a *valid-time column* (type ``abstime``); the query
language's ``on <calendar>`` clause and ``within`` operator use it for
temporal restriction, and regular time series use it to avoid storing time
points at all.

Storage is **no-overwrite** in the POSTGRES tradition: deleted and
superseded tuple versions are retained with hidden transaction stamps
``_tmin`` / ``_tmax`` (the transaction ids that created/invalidated the
version), so queries can inspect the historical state of a relation
("as of" transaction t) — the paper's section 4 notes rule conditions may
check "the current or historical (with respect to transaction time)
state of database objects".

A relation whose ``keeps_history`` is False is the exception: its
updates and deletes overwrite in place and leave no dead version, and
an ``as of`` scan of it raises.  DBCRON's RULE_TIME probe table is the
one such relation (:class:`~repro.rules.tables.RuleTables` sets it).
RuleTables also sets RULE_TIME's ``before_access`` hook, which applies
its pending writes before any whole-relation read or any write.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Sequence

from repro.db.errors import ExecutionError, IntegrityError, SchemaError
from repro.db.index import OrderedIndex
from repro.db.types import TypeRegistry

__all__ = ["Column", "Schema", "Relation", "EVENT_KINDS"]

EVENT_KINDS = ("append", "delete", "replace", "retrieve")


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type_name: str

    def __str__(self) -> str:
        return f"{self.name} : {self.type_name}"


class Schema:
    """An ordered set of columns with optional key and valid-time column."""

    def __init__(self, columns: Sequence[Column | tuple[str, str]],
                 key: Sequence[str] = (),
                 valid_time_column: str | None = None) -> None:
        self.columns: list[Column] = [
            c if isinstance(c, Column) else Column(*c) for c in columns]
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        self._by_name = {c.name: c for c in self.columns}
        for k in key:
            if k not in self._by_name:
                raise SchemaError(f"key column {k!r} is not in the schema")
        self.key = tuple(key)
        if valid_time_column is not None and \
                valid_time_column not in self._by_name:
            raise SchemaError(
                f"valid-time column {valid_time_column!r} is not in the "
                "schema")
        self.valid_time_column = valid_time_column

    def column(self, name: str) -> Column:
        """The column named ``name`` (raises SchemaError if absent)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    def column_names(self) -> list[str]:
        """Column names in declaration order."""
        return [c.name for c in self.columns]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.columns) + ")"


class Relation:
    """An in-memory heap relation with event hooks and secondary indexes.

    ``xact_source`` supplies the current transaction id for version
    stamping (the database wires its transaction counter in); standalone
    relations default to a constant id 1.
    """

    def __init__(self, name: str, schema: Schema,
                 types: TypeRegistry,
                 xact_source: "Callable[[], int] | None" = None) -> None:
        self.name = name
        self.schema = schema
        self._types = types
        self._rows: dict[int, dict] = {}
        #: Dead tuple versions (no-overwrite storage), in burial order.
        self._history: list[dict] = []
        #: False for a relation nothing reads in transaction time: its
        #: updates and deletes then bury no dead version, so it stays
        #: bounded by its live rows, and ``scan(as_of=...)`` raises.
        self.keeps_history = True
        #: Called before any whole-relation read or write (not before
        #: the per-row ``get``/``tid_of``) to apply deferred writes.
        self.before_access: "Callable[[], None] | None" = None
        self._tid_counter = itertools.count(1)
        self._xact_source = xact_source or (lambda: 1)
        #: kind -> list of callables(event) — wired up by the rule manager.
        self.hooks: dict[str, list[Callable]] = {k: [] for k in EVENT_KINDS}
        #: column name -> index object (see repro.db.index).  A declared
        #: valid-time column is always indexed: ``within`` and
        #: ``on <calendar>`` read their candidates from it by range.
        self.indexes: dict[str, object] = {}
        if schema.valid_time_column is not None:
            self.indexes[schema.valid_time_column] = OrderedIndex(
                schema.valid_time_column)
        #: key tuple -> live tid, maintained on every mutation, so key
        #: uniqueness is O(1) instead of a full scan per insert — at
        #: alerting scale (10^5 temporal rules) the scan made catalog
        #: registration quadratic.  None when the schema has no key.
        self._key_map: dict[tuple, int] | None = \
            {} if schema.key else None
        #: Key column values of a row, for cheap did-the-key-change tests.
        self._key_get = itemgetter(*schema.key) if schema.key else None
        #: Column names a tuple dict may carry (hidden stamps included).
        self._known = frozenset(schema.column_names()) | {
            "_tid", "_tmin", "_tmax"}
        #: ``(types.generation, ((column name, validate), ...))``: the
        #: columns' validators, bound on first use and again after a
        #: ``TypeRegistry.define(..., replace=True)``.
        self._bound: "tuple[int, tuple] | None" = None
        #: Bumped on every mutation (insert/delete/update/truncate).
        #: Column values gathered from the rows are only valid while
        #: this stays unchanged — the executor gathers them per
        #: statement and never caches them across statements.
        self._version = 0

    @property
    def data_version(self) -> int:
        """Monotone mutation counter governing extracted-lane lifetime."""
        return self._version

    # -- basic properties ------------------------------------------------------

    def __len__(self) -> int:
        if self.before_access is not None:
            self.before_access()
        return len(self._rows)

    def version_count(self) -> int:
        """Total stored tuple versions, live and dead."""
        return len(self) + len(self._history)

    def scan(self, as_of: int | None = None) -> list[dict]:
        """A snapshot list of the live tuples (dicts including ``_tid``),
        taken when called, so writes made while reading it do not show.

        With ``as_of``, the versions visible to transaction ``as_of``:
        created at or before it and not invalidated by it, dead ones
        first; a relation that keeps no history raises
        :class:`ExecutionError`.
        """
        if self.before_access is not None:
            self.before_access()
        if as_of is None:
            return list(self._rows.values())
        if not self.keeps_history:
            raise ExecutionError(
                f"relation {self.name!r} keeps no history: it cannot be "
                f"read as of transaction {as_of}")
        return [row for row in self._history
                if row["_tmin"] <= as_of and row["_tmax"] > as_of] + \
            [row for row in self._rows.values() if row["_tmin"] <= as_of]

    def get(self, tid: int) -> dict | None:
        """The live tuple with id ``tid``, or None."""
        return self._rows.get(tid)

    def tid_of(self, key: tuple) -> int | None:
        """The tid of the live tuple whose key columns equal ``key``
        (one value per key column), or None — a key-map lookup."""
        if self._key_map is None:
            raise SchemaError(f"relation {self.name!r} has no key")
        return self._key_map.get(key)

    # -- validation ---------------------------------------------------------------

    def _validators(self) -> tuple:
        """``(column name, validate)`` per schema column, in order."""
        types, bound = self._types, self._bound
        if bound is None or bound[0] != types.generation:
            bound = self._bound = (types.generation, tuple(
                (column.name, types.get(column.type_name).validate)
                for column in self.schema.columns))
        return bound[1]

    def _validate(self, values: dict) -> dict:
        row = {name: validate(values.get(name))
               for name, validate in self._validators()}
        if not self._known.issuperset(values):
            self._raise_unknown(values)
        return row

    def _raise_unknown(self, values: dict) -> None:
        raise SchemaError(f"unknown columns for {self.name}: "
                          f"{sorted(set(values) - self._known)}")

    def _key_of(self, row: dict) -> tuple:
        return tuple(row[k] for k in self.schema.key)

    def _check_key(self, row: dict, ignore_tid: int | None = None) -> None:
        if self._key_map is None:
            return
        key_value = self._key_of(row)
        holder = self._key_map.get(key_value)
        if holder is not None and holder != ignore_tid:
            raise IntegrityError(
                f"duplicate key {key_value!r} in {self.name}")

    # -- mutation -----------------------------------------------------------------

    def insert(self, values: dict, fire_hooks: bool = True) -> dict:
        """Append a tuple (validated, key-checked, version-stamped)."""
        if self.before_access is not None:
            self.before_access()
        row = self._validate(values)
        self._check_key(row)
        row["_tid"] = next(self._tid_counter)
        row["_tmin"] = self._xact_source()
        self._version += 1
        self._rows[row["_tid"]] = row
        if self._key_map is not None:
            self._key_map[self._key_of(row)] = row["_tid"]
        for index in self.indexes.values():
            index.insert(row)
        if fire_hooks:
            self._fire("append", new=row)
        return row

    def insert_many(self, values_batch: "Sequence[dict]",
                    fire_hooks: bool = True) -> list[dict]:
        """Append a batch of tuples with bulk index maintenance.

        Semantically ``[self.insert(v) for v in values_batch]`` — same
        validation, key checks (including duplicates *within* the
        batch), version stamps and append events in order — but
        secondary indexes are fed the whole batch at once through
        :meth:`~repro.db.index.OrderedIndex.insert_batch` (sort once,
        one merge) instead of one O(n) ``list.insert`` per row.
        Validation failures raise before any row is stored, so a bad
        batch never half-applies.
        """
        if self.before_access is not None:
            self.before_access()
        rows: list[dict] = []
        key_map = self._key_map
        #: The batch's keys, one per row in order, each computed once.
        keys: dict[tuple, None] = {}
        for values in values_batch:
            row = self._validate(values)
            if key_map is not None:
                key_value = self._key_of(row)
                if key_value in key_map or key_value in keys:
                    raise IntegrityError(
                        f"duplicate key {key_value!r} in {self.name}")
                keys[key_value] = None
            rows.append(row)
        xact = self._xact_source()
        self._version += 1
        for row in rows:
            row["_tid"] = next(self._tid_counter)
            row["_tmin"] = xact
            self._rows[row["_tid"]] = row
        if key_map is not None:
            key_map.update(zip(keys, [row["_tid"] for row in rows]))
        for index in self.indexes.values():
            if hasattr(index, "insert_batch"):
                index.insert_batch(rows)
            else:
                for row in rows:
                    index.insert(row)
        if fire_hooks:
            for row in rows:
                self._fire("append", new=row)
        return rows

    def delete(self, tid: int, fire_hooks: bool = True) -> dict:
        """Remove a live tuple; its version moves to history (if kept)."""
        if self.before_access is not None:
            self.before_access()
        try:
            row = self._rows.pop(tid)
        except KeyError:
            raise IntegrityError(
                f"no tuple with tid {tid} in {self.name}") from None
        if self.keeps_history:
            dead = dict(row)
            dead["_tmax"] = self._xact_source()
            self._history.append(dead)
        self._version += 1
        if self._key_map is not None:
            self._key_map.pop(self._key_of(row), None)
        for index in self.indexes.values():
            index.remove(row)
        if fire_hooks:
            self._fire("delete", current=row)
        return row

    def update(self, tid: int, changes: dict,
               fire_hooks: bool = True) -> dict:
        """Replace columns of a tuple; the old version moves to history
        (if kept)."""
        return self.update_many([(tid, changes)], fire_hooks=fire_hooks)[0]

    def update_many(self, updates: "Sequence[tuple[int, dict]]",
                    fire_hooks: bool = True) -> list[dict]:
        """Apply ``(tid, changes)`` updates as one batch; the new rows.

        Semantically ``[self.update(tid, changes) for ...]`` — same
        validation, key checks against the state each earlier update
        left, dead versions in history (none when the relation keeps no
        history), ``data_version`` bumps and replace events in order (a
        tid may appear more than once) — but every row is checked
        before any is stored, so a bad batch never half-applies.  It is
        the one update path, history or not.  The bookkeeping is paid
        once per batch: column types are resolved once and only the
        changed columns are validated (the rest were checked when the
        row was stored), the key map is touched only for rows whose key
        changed, and each index swaps the batch's entries through one
        :meth:`~repro.db.index.OrderedIndex.replace_batch`.
        """
        if self.before_access is not None:
            self.before_access()
        key_map, key_get, known = self._key_map, self._key_get, self._known
        rows = self._rows
        validators = dict(self._validators())
        # Key-map changes the batch makes: key -> new holder (None =
        # freed), consulted before the live map by later checks.
        moved: dict[tuple, "int | None"] = {}
        latest: dict[int, dict] = {}
        staged: list[tuple[dict, dict]] = []
        for tid, changes in updates:
            old = latest.get(tid) or rows.get(tid)
            if old is None:
                raise IntegrityError(
                    f"no tuple with tid {tid} in {self.name}")
            row = old.copy()
            for name, value in changes.items():
                validate = validators.get(name)
                if validate is not None:  # hidden stamps are not changed
                    row[name] = validate(value)
            if not known.issuperset(changes):
                self._raise_unknown(changes)
            if key_map is not None and key_get(row) != key_get(old):
                new_key = self._key_of(row)
                holder = moved[new_key] if new_key in moved \
                    else key_map.get(new_key)
                if holder is not None and holder != tid:
                    raise IntegrityError(
                        f"duplicate key {new_key!r} in {self.name}")
                moved[self._key_of(old)] = None
                moved[new_key] = tid
            latest[tid] = row
            staged.append((old, row))
        xact = self._xact_source()
        self._version += len(staged)
        history = self._history if self.keeps_history else None
        originals: dict[int, dict] = {}
        for old, row in staged:
            tid = row["_tid"]
            originals.setdefault(tid, old)
            row["_tmin"] = xact
            if history is not None:
                dead = dict(old)
                dead["_tmax"] = xact
                history.append(dead)
            rows[tid] = row
        for key, tid in moved.items():
            if tid is None:
                key_map.pop(key, None)
            else:
                key_map[key] = tid
        if self.indexes:
            final = [row for _, row in staged]
            if len(latest) < len(final):
                # A tid written twice is indexed once, at its last write.
                last = {row["_tid"]: pos for pos, row in enumerate(final)}
                final = [row for pos, row in enumerate(final)
                         if last[row["_tid"]] == pos]
            old_rows = list(originals.values())
            for index in self.indexes.values():
                index.replace_batch(old_rows, final)
        if fire_hooks:
            for old, row in staged:
                self._fire("replace", current=old, new=row)
        return [row for _, row in staged]

    def notify_retrieve(self, row: dict) -> None:
        """Fire retrieve-event hooks for a tuple touched by a query."""
        self._fire("retrieve", current=row)

    def truncate(self) -> None:
        """Discard all tuples, live and historical."""
        if self.before_access is not None:
            self.before_access()
        self._version += 1
        self._rows.clear()
        self._history.clear()
        if self._key_map is not None:
            self._key_map.clear()
        for index in self.indexes.values():
            index.rebuild(self.scan())

    def vacuum(self, before_xact: int | None = None) -> int:
        """Discard dead versions (all, or those invalidated before a
        transaction id); returns how many were reclaimed."""
        if self.before_access is not None:
            self.before_access()
        if before_xact is None:
            reclaimed = len(self._history)
            self._history.clear()
            return reclaimed
        kept = [row for row in self._history
                if row["_tmax"] >= before_xact]
        reclaimed = len(self._history) - len(kept)
        self._history = kept
        return reclaimed

    # -- events ------------------------------------------------------------------

    def _fire(self, kind: str, current: dict | None = None,
              new: dict | None = None) -> None:
        if not self.hooks[kind]:
            return
        from repro.rules.events import Event  # local import, no cycle at load
        event = Event(kind=kind, relation=self.name, current=current,
                      new=new)
        for hook in self.hooks[kind]:
            hook(event)
