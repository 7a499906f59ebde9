"""The database façade: relations, registries, calendars, rules, queries.

A :class:`Database` wires together the storage layer, the extensible
type/operator/function registries, a
:class:`~repro.catalog.registry.CalendarRegistry` (declared to the DBMS the
way the paper declares its calendar procedures as operators), the rule
manager, and system catalogs (``pg_class``, ``pg_attribute``) maintained as
ordinary relations.

The calendar bridge functions registered on every database:

``member(t, cal)``, ``calendar(name)``, ``cal(expr)``, ``day(text)``,
``date_text(t)``, ``weekday(t)``, ``next_in(cal, t)``, ``prev_in(cal, t)``,
``shift_in(cal, t, n)``, ``count_in(cal, a, b)`` — making temporal
predicates available inside ordinary Postquel queries, which is exactly the
paper's "declare the calendar procedures as operators to the extensible
DBMS" strategy (section 5).
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock
from time import perf_counter
from typing import Sequence

from repro.catalog.registry import CalendarRegistry
from repro.errors import ReproError
from repro.core.arithmetic import (
    count_points_between,
    next_point,
    prev_point,
    shift_point,
)
from repro.core.basis import CalendarSystem
from repro.core.calendar import Calendar
from repro.db.errors import ExecutionError, SchemaError
from repro.db.executor import Executor, Result
from repro.db.index import CalendarProbe, OrderedIndex
from repro.db.ql.parser import parse_statement
from repro.db.storage import Column, Relation, Schema
from repro.db.types import FunctionRegistry, OperatorRegistry, TypeRegistry

__all__ = ["Database"]

_SYSTEM_RELATIONS = ("pg_class", "pg_attribute")


class Database:
    """An in-memory extensible relational database."""

    def __init__(self, system: CalendarSystem | None = None,
                 calendars: CalendarRegistry | None = None) -> None:
        self.types = TypeRegistry()
        self.operators = OperatorRegistry()
        self.functions = FunctionRegistry()
        self.calendars = calendars or CalendarRegistry(system)
        self.system = self.calendars.system
        self._relations: dict[str, Relation] = {}
        #: Transaction counter for no-overwrite version stamping; bumped
        #: once per mutating statement (begin_xact).
        self._xact = 1
        self._executor = Executor(self)
        #: Set by repro.rules.manager.RuleManager when attached.
        self.rule_manager = None
        #: Calendar probes of text references, least recently used
        #: first, all of catalog version ``_probes_version``.
        self._probes: OrderedDict[str, CalendarProbe] = OrderedDict()
        self._probes_version = None
        self._probes_lock = Lock()
        #: name -> builtin interval-predicate function; the vectorized
        #: executor only compiles ``overlaps``/``during`` conjuncts to
        #: endpoint sweeps while they still resolve to these exact
        #: callables (a user redefinition disables the sweep, not the
        #: semantics).
        self.builtin_interval_predicates: dict = {}
        self._create_system_catalogs()
        self._register_calendar_bridge()
        self._register_interval_predicates()

    # -- DDL ---------------------------------------------------------------------

    def create_table(self, name: str,
                     columns: Sequence[tuple[str, str] | Column],
                     key: Sequence[str] = (),
                     valid_time_column: str | None = None) -> Relation:
        """Create a heap relation and record it in the system catalogs."""
        key_name = name.lower()
        if key_name in self._relations:
            raise SchemaError(f"relation {name!r} already exists")
        schema = Schema(columns, key=key, valid_time_column=valid_time_column)
        for column in schema.columns:
            self.types.get(column.type_name)  # validates the type exists
        relation = Relation(key_name, schema, self.types,
                            xact_source=self.current_xact)
        self._relations[key_name] = relation
        self._catalog_add(relation)
        return relation

    def drop_table(self, name: str) -> None:
        """Drop a heap relation and its catalog rows."""
        key = name.lower()
        if key in _SYSTEM_RELATIONS:
            raise SchemaError(f"cannot drop system relation {name!r}")
        if key not in self._relations:
            raise SchemaError(f"unknown relation {name!r}")
        del self._relations[key]
        self._catalog_remove(key)

    def create_index(self, relation_name: str, column: str) -> OrderedIndex:
        """Build (and maintain) an ordered index over one column.

        A column the relation already indexes (its valid-time column
        always is) returns that index as it stands, without a rebuild.
        """
        relation = self.relation(relation_name)
        relation.schema.column(column)  # validates
        index = relation.indexes.get(column)
        if isinstance(index, OrderedIndex):
            return index
        index = OrderedIndex(column)
        index.rebuild(relation.scan())
        relation.indexes[column] = index
        return index

    def relation(self, name: str) -> Relation:
        """The relation object under ``name`` (case-insensitive)."""
        try:
            relation = self._relations[name.lower()]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None
        if relation.before_access is not None:
            relation.before_access()
        return relation

    def relation_names(self) -> list[str]:
        """Sorted names of all relations, system catalogs included."""
        return sorted(self._relations)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._relations

    # -- queries ------------------------------------------------------------------

    @property
    def instrumentation(self):
        """The metrics/tracing attachment point (the registry's)."""
        return self.calendars.instrumentation

    def execute(self, query: str, bindings: dict | None = None) -> Result:
        """Parse and execute one Postquel statement.

        Execution counts and latencies are recorded under the
        ``db.statements`` / ``db.statement_seconds`` metrics; with
        tracing on, each statement gets a ``db.execute`` span with
        ``db.parse`` / ``db.stmt.<Kind>`` children.
        """
        inst = self.instrumentation
        tracer = inst.tracer
        t0 = perf_counter()
        try:
            if tracer is None:
                statement = parse_statement(query)
                result = self._executor.execute(statement, bindings)
            else:
                with tracer.span("db.execute", query=query):
                    with tracer.span("db.parse"):
                        statement = parse_statement(query)
                    with tracer.span(
                            f"db.stmt.{type(statement).__name__}"):
                        result = self._executor.execute(statement, bindings)
        except ReproError as exc:
            raise exc.add_context(query=query)
        inst.metrics.counter("db.statements").inc()
        inst.metrics.histogram("db.statement_seconds").observe(
            perf_counter() - t0)
        return result

    def retrieve(self, query: str, bindings: dict | None = None) -> Result:
        """Alias of :meth:`execute` for read queries."""
        result = self.execute(query, bindings)
        return result

    def explain(self, query: str) -> str:
        """The execution strategy of a retrieve, as text."""
        return self._executor.explain(parse_statement(query))

    def insert(self, relation: str, **values) -> dict:
        """Programmatic append (bypasses the parser, still fires rules)."""
        self.begin_xact()
        return self.relation(relation).insert(values)

    # -- transaction time ------------------------------------------------------------

    def current_xact(self) -> int:
        """The current transaction id (stamps new tuple versions)."""
        return self._xact

    def begin_xact(self) -> int:
        """Start a new transaction (one per mutating statement)."""
        self._xact += 1
        return self._xact

    def vacuum(self, before_xact: int | None = None) -> int:
        """Reclaim dead tuple versions across all relations."""
        return sum(relation.vacuum(before_xact)
                   for relation in self._relations.values())

    # -- system catalogs -------------------------------------------------------------

    def _create_system_catalogs(self) -> None:
        pg_class = Relation("pg_class", Schema([
            Column("relname", "text"), Column("relnatts", "int4"),
            Column("relkind", "text"),
        ]), self.types)
        pg_attribute = Relation("pg_attribute", Schema([
            Column("relname", "text"), Column("attname", "text"),
            Column("atttype", "text"), Column("attnum", "int4"),
        ]), self.types)
        self._relations["pg_class"] = pg_class
        self._relations["pg_attribute"] = pg_attribute
        for relation in (pg_class, pg_attribute):
            self._catalog_add(relation, kind="system")

    def _catalog_add(self, relation: Relation, kind: str = "heap") -> None:
        self._relations["pg_class"].insert(
            {"relname": relation.name,
             "relnatts": len(relation.schema.columns),
             "relkind": kind},
            fire_hooks=False)
        for i, column in enumerate(relation.schema.columns, start=1):
            self._relations["pg_attribute"].insert(
                {"relname": relation.name, "attname": column.name,
                 "atttype": column.type_name, "attnum": i},
                fire_hooks=False)

    def _catalog_remove(self, name: str) -> None:
        pg_class = self._relations["pg_class"]
        for row in pg_class.scan():
            if row["relname"] == name:
                pg_class.delete(row["_tid"], fire_hooks=False)
        pg_attribute = self._relations["pg_attribute"]
        for row in pg_attribute.scan():
            if row["relname"] == name:
                pg_attribute.delete(row["_tid"], fire_hooks=False)

    # -- calendar bridge ---------------------------------------------------------------

    #: Most text references whose probes :meth:`calendar_probe` keeps.
    PROBE_CACHE_SIZE = 64

    #: Probe-safety margin: a resolved calendar holds whole elements
    #: overlapping the registry default window, so a compiled membership
    #: probe only provably agrees with it well inside the window (one
    #: max element span + slack).
    _PERIODIC_PROBE_MARGIN = 400

    def calendar_probe(self, ref: "str | Calendar") -> CalendarProbe:
        """The membership probe of a calendar value, defined name or
        expression text — what ``within``, ``on`` and ``member()`` read.

        A text reference's probe resolves the calendar and compiles its
        periodic set on first need; it is kept for the current catalog
        version only, and only among the :data:`PROBE_CACHE_SIZE` most
        recently used references.
        """
        if isinstance(ref, Calendar):
            return CalendarProbe(lambda: ref)
        if not isinstance(ref, str):
            raise ExecutionError(f"cannot resolve calendar from {ref!r}")
        probes = self._probes
        with self._probes_lock:
            if self._probes_version != self.calendars.version:
                probes.clear()
                self._probes_version = self.calendars.version
            probe = probes.get(ref)
            if probe is not None:
                probes.move_to_end(ref)
                return probe
            probe = probes[ref] = CalendarProbe(
                lambda: self._resolve_text(ref),
                lambda: self._compile_periodic(ref))
            if len(probes) > self.PROBE_CACHE_SIZE:
                probes.popitem(last=False)
        return probe

    def _resolve_text(self, ref: str) -> Calendar:
        if ref in self.calendars:
            value = self.calendars.evaluate(ref)
        else:
            value = self.calendars.eval_expression(ref)
        if not isinstance(value, Calendar):
            raise ExecutionError(
                f"calendar reference {ref!r} did not produce a calendar")
        return value

    def _compile_periodic(self, ref: str):
        """``(pset, safe_lo, safe_hi)`` for a reference that compiles."""
        pset = self.calendars.periodic_set(ref)
        if pset is None:
            return None
        lo, hi = self.calendars.default_window
        margin = self._PERIODIC_PROBE_MARGIN
        return (pset, lo + margin, hi - margin)

    def resolve_calendar(self, ref: "str | Calendar") -> Calendar:
        """Resolve a calendar value, defined name, or expression text
        (text references over the registry's default window, kept with
        their probe)."""
        return self.calendar_probe(ref).calendar

    def resolve_periodic(self, ref):
        """The compiled periodic probe of a text calendar reference.

        Returns ``(pset, safe_lo, safe_hi)`` — the compiled
        :class:`~repro.core.periodic.PeriodicSet` and the tick range
        inside which ``pset.contains`` provably agrees with
        ``resolve_calendar(ref).contains_point`` — or ``None`` when the
        reference is not text or does not compile.
        """
        if not isinstance(ref, str):
            return None
        return self.calendar_probe(ref).periodic

    def calendar_from_query(self, query: str,
                            column: str | None = None) -> Calendar:
        """Run a retrieve and collect an abstime column into a calendar.

        Closes the loop from data back to calendars: the resulting
        (sorted, deduplicated) instant calendar can be stored in the
        catalog and drive temporal rules.
        """
        result = self.execute(query)
        if column is None:
            if len(result.columns) != 1:
                raise ExecutionError(
                    "calendar_from_query needs a single-column retrieve "
                    "or an explicit column name")
            column = result.columns[0]
        ticks = sorted({row[column] for row in result.rows
                        if row.get(column) is not None})
        for t in ticks:
            if not isinstance(t, int) or t == 0:
                raise ExecutionError(
                    f"column {column!r} holds non-abstime value {t!r}")
        from repro.core.granularity import Granularity
        return Calendar.from_intervals([(t, t) for t in ticks],
                                       Granularity.DAYS)

    def _register_calendar_bridge(self) -> None:
        calendars = self.calendars
        system = self.system

        def _cal(ref) -> Calendar:
            cal = self.resolve_calendar(ref)
            return cal.flatten() if cal.order != 1 else cal

        def _tick(value, what: str = "time argument") -> int:
            if not isinstance(value, int) or isinstance(value, bool) or \
                    value == 0:
                raise ExecutionError(
                    f"{what} must be a non-zero abstime tick, "
                    f"got {value!r}")
            return value

        self.functions.register(
            "member", lambda t, ref: self.calendar_probe(ref).contains(t))
        self.functions.register("calendar", lambda name: _cal(name))
        self.functions.register(
            "cal", lambda text: calendars.eval_expression(text))
        self.functions.register("day", lambda text: system.day_of(text))
        self.functions.register(
            "date_text", lambda t: str(system.date_of(_tick(t))))
        self.functions.register(
            "weekday", lambda t: system.epoch.weekday_of(_tick(t)))
        self.functions.register(
            "next_in", lambda ref, t: next_point(_cal(ref), _tick(t)))
        self.functions.register(
            "prev_in", lambda ref, t: prev_point(_cal(ref), _tick(t)))
        self.functions.register(
            "shift_in", lambda ref, t, n: shift_point(_cal(ref), _tick(t),
                                                      n))
        self.functions.register(
            "count_in",
            lambda ref, a, b: count_points_between(_cal(ref), _tick(a),
                                                   _tick(b)))
        # Calendar-valued operators, declared like POSTGRES ADT operators.
        self.operators.register(
            "+", "calendar", "calendar", lambda a, b: a.union(b))
        self.operators.register(
            "-", "calendar", "calendar", lambda a, b: a.difference(b))
        self.operators.register(
            "*", "calendar", "calendar", lambda a, b: a.intersection(b))

    def _register_interval_predicates(self) -> None:
        """Builtin Allen-style interval predicates over column endpoints.

        ``overlaps(a.lo, a.hi, b.lo, b.hi)`` / ``during(...)`` are plain
        scalar functions (None endpoints are simply non-matching, like a
        failed comparison), but the vectorized executor recognises calls
        that still resolve to these exact callables and runs them as
        endpoint-sweep joins instead of evaluating per tuple pair.
        """

        def _overlaps(alo, ahi, blo, bhi):
            if alo is None or ahi is None or blo is None or bhi is None:
                return False
            return alo <= bhi and blo <= ahi

        def _during(alo, ahi, blo, bhi):
            if alo is None or ahi is None or blo is None or bhi is None:
                return False
            return alo >= blo and ahi <= bhi

        self.builtin_interval_predicates = {
            "overlaps": _overlaps, "during": _during}
        self.functions.register("overlaps", _overlaps)
        self.functions.register("during", _during)
