"""Query execution for the Postquel-like language.

Two engines share this module:

* the historical **row-at-a-time** engine: nested-loop joins over the
  from-clause range variables with predicate pushdown, an
  :class:`~repro.db.index.OrderedIndex` probe for
  ``var.col = <const>`` conjuncts, and a per-tuple calendar probe for
  ``on <calendar>``;
* the **vectorized** engine (the default): retrieve
  statements whose predicate classifies cleanly run the plan
  :func:`repro.db.vector.plan_retrieve` records — index probes and
  valid-time range scans for access, per-variable selection vectors
  with batched calendar probes, hash equi-joins, Piatov-style endpoint
  sweeps for ``overlaps``/``during`` conjuncts, and a range scan or
  one batched membership pass for the ``on <calendar>`` clause.
  Anything the planner cannot classify (historical ``as of`` scans,
  overridden operators, cross-variable arithmetic, …) falls back to
  the row engine wholesale, so the two always agree tuple-for-tuple.

Every membership test reads the database's
:class:`~repro.db.index.CalendarProbe` for the calendar
(``Database.calendar_probe``).

Operator dispatch goes through the extensible
:class:`~repro.db.types.OperatorRegistry` first (so user-declared ADT
operators — the POSTGRES extensibility story — take precedence), falling
back to built-in arithmetic/comparison semantics.

``retrieve`` fires a *retrieve* event for every tuple that contributes to
the result, which is what lets event rules monitor reads (section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from time import perf_counter
from typing import Iterator, Sequence

from repro.core.calendar import Calendar
from repro.core.chrono import CivilDate
from repro.core.columnar import interval_join_pairs
from repro.db import vector
from repro.db.errors import ExecutionError, SchemaError
from repro.db.index import OrderedIndex
from repro.db.ql.ast import (
    Append,
    BinOp,
    ColumnRef,
    Const,
    CreateIndex,
    CreateTable,
    DefineCalendar,
    DefineRule,
    Delete,
    DropRule,
    DropTable,
    FuncCall,
    QlExpr,
    Replace,
    Retrieve,
    Statement,
    Target,
    UnOp,
)

__all__ = ["Result", "Executor", "AGGREGATES"]

AGGREGATES = ("count", "sum", "avg", "min", "max")


@dataclass
class Result:
    """A retrieve result: ordered column names and rows of dicts."""

    columns: list[str] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    #: Number of tuples touched by a mutation statement.
    affected: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.rows)

    def column(self, name: str) -> list:
        """All values of one result column, in row order."""
        return [row[name] for row in self.rows]

    def first(self) -> dict | None:
        """The first result row, or None."""
        return self.rows[0] if self.rows else None

    def to_table(self) -> str:
        """Render as a fixed-width text table."""
        if not self.columns:
            return f"({self.affected} tuples affected)"
        widths = {c: len(c) for c in self.columns}
        rendered = []
        for row in self.rows:
            cells = {c: str(row.get(c)) for c in self.columns}
            for c in self.columns:
                widths[c] = max(widths[c], len(cells[c]))
            rendered.append(cells)
        header = " | ".join(c.ljust(widths[c]) for c in self.columns)
        sep = "-+-".join("-" * widths[c] for c in self.columns)
        lines = [header, sep]
        for cells in rendered:
            lines.append(" | ".join(cells[c].ljust(widths[c])
                                    for c in self.columns))
        return "\n".join(lines)


def _type_name(value: object) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int4"
    if isinstance(value, float):
        return "float8"
    if isinstance(value, str):
        return "text"
    if isinstance(value, CivilDate):
        return "date"
    if isinstance(value, Calendar):
        return "calendar"
    return "any"


class _TidRows:
    """A range scan's candidate rows: the index entries inside a
    calendar's runs, counted or fetched on first need.

    A hook-free ``count()`` only takes the length, which the index
    counts from its per-key counts where it keeps them, so it builds no
    tid list and fetches no row dict.  Any other consumer's first access
    collects the tids, sorts them ascending (scan order) and fetches
    every row; that happens before any selection narrows the candidates,
    and before any retrieve hook can write to the relation, so positions
    always index the sorted list.
    """

    __slots__ = ("_relation", "_index", "_runs", "_tids", "_len", "_rows")

    def __init__(self, relation, index, runs: list) -> None:
        self._relation = relation
        self._index = index
        self._runs = runs
        self._tids = None
        self._len = None
        self._rows = None

    def _tid_list(self) -> list:
        if self._tids is None:
            self._tids = self._index.lookup_runs(self._runs)
        return self._tids

    def __len__(self) -> int:
        if self._len is None:
            n = self._index.count_runs(self._runs)
            self._len = len(self._tid_list()) if n is None else n
        return self._len

    def __getitem__(self, p: int) -> dict:
        rows = self._rows
        if rows is None:
            tids = self._tid_list()
            tids.sort()
            get = self._relation.get
            rows = self._rows = [get(tid) for tid in tids]
        return rows[p]


class Executor:
    """Executes statements against a :class:`repro.db.database.Database`."""

    def __init__(self, database) -> None:
        self.db = database
        #: (registry, latency, per-relation family, {relation: child}).
        self._handles: "tuple | None" = None

    # -- public ------------------------------------------------------------------

    def execute(self, statement: Statement,
                bindings: dict | None = None) -> Result:
        """Run one parsed statement with optional variable bindings.

        Every execution is timed into the ``db.query.latency`` histogram
        and the per-relation ``db.relation.query_seconds`` family and
        — with tracing on — wrapped in an ``executor.<Kind>`` span
        whose meta records the result's ``rows`` and ``affected``.  The
        instrumentation bundle is looked up per call because a session
        may swap the database's bundle after this executor was built;
        the metric handles are bound once per registry.
        """
        inst = self.db.instrumentation
        kind = type(statement).__name__
        tracer = inst.tracer
        t0 = perf_counter()
        if tracer is not None:
            with tracer.span(f"executor.{kind}") as span:
                result = self._dispatch(statement, bindings)
                span.meta["rows"] = len(result.rows)
                span.meta["affected"] = result.affected
        else:
            result = self._dispatch(statement, bindings)
        elapsed = perf_counter() - t0
        handles = self._handles
        if handles is None or handles[0] is not inst.metrics:
            metrics = inst.metrics
            handles = self._handles = (
                metrics, metrics.histogram("db.query.latency"),
                metrics.histogram("db.relation.query_seconds",
                                  "Query latency per target relation",
                                  labels=("relation",), max_series=128),
                {})
        _, latency, family, children = handles
        latency.observe(elapsed)
        relation = self._statement_relation(statement)
        child = children.get(relation)
        if child is None:
            child = family.labels(relation)
            # One collapsed into ``other`` is resolved (counted) again.
            if family.series().get((relation,)) is child:
                children[relation] = child
        child.observe(elapsed)
        return result

    @staticmethod
    def _statement_relation(statement: Statement) -> str:
        """The relation a statement targets, for per-relation metrics.

        Joins are attributed to their first range variable's relation;
        statements with no relation (define calendar/rule, …) land in
        the ``-`` series.  The labelled family is cardinality-governed,
        so a schema with hundreds of relations collapses the tail into
        ``other`` rather than growing the registry unboundedly.
        """
        if isinstance(statement, (Append, CreateIndex)):
            return statement.relation
        if isinstance(statement, (Retrieve, Replace, Delete)):
            if statement.range_vars:
                return statement.range_vars[0].relation
            if isinstance(statement, (Replace, Delete)):
                # Implicit range: the variable names the relation.
                return statement.var
            return "-"
        if isinstance(statement, (CreateTable, DropTable)):
            return statement.name
        return "-"

    def _dispatch(self, statement: Statement, bindings: dict | None
                  ) -> Result:
        bindings = dict(bindings or {})
        if isinstance(statement, Retrieve):
            return self._retrieve(statement, bindings)
        if isinstance(statement, Append):
            return self._append(statement, bindings)
        if isinstance(statement, Replace):
            return self._replace(statement, bindings)
        if isinstance(statement, Delete):
            return self._delete(statement, bindings)
        if isinstance(statement, CreateTable):
            self.db.create_table(statement.name, statement.columns,
                                 key=statement.key,
                                 valid_time_column=statement
                                 .valid_time_column)
            return Result(affected=0)
        if isinstance(statement, CreateIndex):
            self.db.create_index(statement.relation, statement.column)
            return Result(affected=0)
        if isinstance(statement, DropTable):
            self.db.drop_table(statement.name)
            return Result(affected=0)
        if isinstance(statement, DefineCalendar):
            self.db.calendars.define(
                statement.name, script=statement.script,
                values=(list(statement.values)
                        if statement.values is not None else None),
                granularity=statement.granularity)
            return Result(affected=0)
        if isinstance(statement, DefineRule):
            return self._define_rule(statement)
        if isinstance(statement, DropRule):
            self._rule_manager().drop_rule(statement.name)
            return Result(affected=0)
        raise ExecutionError(f"cannot execute {statement!r}")

    def _rule_manager(self):
        manager = self.db.rule_manager
        if manager is None:
            raise ExecutionError(
                "no rule manager is attached to this database "
                "(create a repro.rules.RuleManager first)")
        return manager

    def _define_rule(self, stmt: DefineRule) -> Result:
        manager = self._rule_manager()
        if stmt.calendar_expression is not None:
            manager.declare_temporal(
                stmt.name, expression=stmt.calendar_expression,
                actions=stmt.actions)
        else:
            rule = manager.declare_event(
                stmt.name, event=stmt.event, relation=stmt.relation,
                condition=None, actions=stmt.actions)
            rule.condition = stmt.condition
        return Result(affected=0)

    # -- explain -----------------------------------------------------------------

    def explain(self, statement: Statement) -> str:
        """Describe how a retrieve would execute (no tuples touched).

        Reports, per range variable, its access path (sequential scan,
        index probe, valid-time range scan, or historical ``as of``
        scan) and the predicate conjuncts evaluated at that join level,
        plus any ``on <calendar>`` restriction and post-processing
        steps.

        When the statement classifies for the vectorized engine, the
        access paths and a ``vectorized pipeline`` section listing each
        conjunct's kernel (``hash join``, ``endpoint sweep``,
        ``valid-time range scan``, ``batched calendar sweep``,
        ``sequential fallback``, with why the range scan declined where
        it could have served) are printed from the plan that executes;
        otherwise a ``vectorized: off`` line states why — e.g. that an
        ``as of`` historical scan forces the sequential path.
        """
        if not isinstance(statement, Retrieve):
            raise ExecutionError("explain supports retrieve statements")
        plan, reason = vector.plan_retrieve(statement, self.db, set())
        lines: list[str] = []
        by_level = self._pushdown(statement.range_vars, statement.where, ())
        for i, rv in enumerate(statement.range_vars):
            relation = self.db.relation(rv.relation)
            if plan is not None:
                strategy = plan.access[rv.var].label
            elif rv.as_of is not None:
                strategy = f"historical scan (as of {rv.as_of})"
            else:
                strategy = vector.SEQUENTIAL_SCAN
                for column, _ in self._equality_terms(
                        statement.where, rv.var, {}) \
                        if statement.where is not None else ():
                    if column in relation.indexes:
                        strategy = f"index probe on {rv.relation}.{column}"
                        break
            lines.append(f"{'  ' * i}-> {rv.var} in {rv.relation}: "
                         f"{strategy}")
            terms = [str(t) for t in by_level.get(i, ())]
            if terms:
                lines.append(f"{'  ' * i}   filter: "
                             + " and ".join(terms))
        if statement.on_calendar:
            probe = "calendar probe"
            if plan is not None:
                probe = plan.on.strategy if plan.on.declined is None else \
                    (f"{plan.on.strategy}; range scan declined: "
                     f"{plan.on.declined}")
            lines.append(f"valid-time restriction: on "
                         f"{statement.on_calendar!r} ({probe})")
        if plan is not None:
            if plan.kernels:
                lines.append("vectorized pipeline:")
                for kernel in plan.kernels:
                    lines.append(f"  {kernel.term}: {kernel}")
            else:
                lines.append("vectorized pipeline: no predicate")
        elif reason is not None and statement.range_vars:
            lines.append(f"vectorized: off ({reason})")
        if statement.unique:
            lines.append("post: unique")
        if statement.order_by:
            keys = ", ".join(str(e) for e, _ in statement.order_by)
            lines.append(f"post: order by {keys}")
        if statement.into:
            lines.append(f"post: materialise into {statement.into}")
        if not lines:
            return "-> constant result"
        return "\n".join(lines)

    # -- retrieve ----------------------------------------------------------------

    def _retrieve(self, stmt: Retrieve, bindings: dict) -> Result:
        where = stmt.where
        on_probe = self._on_probe(stmt)
        aggregate_mode = stmt.targets and all(
            isinstance(t.expr, FuncCall) and t.expr.name in AGGREGATES
            for t in stmt.targets)
        columns = [t.name for t in stmt.targets]
        rows: list[dict] = []
        acc: dict[int, list] = {i: [] for i in range(len(stmt.targets))}
        plan, _reason = vector.plan_retrieve(stmt, self.db, set(bindings))
        fast_count = None
        combos: "Iterator[dict] | list[dict]"
        if plan is not None:
            # count() over a hook-free retrieve needs only the surviving
            # combo count — no dict materialisation.
            count_fast = bool(aggregate_mode) and all(
                t.expr.name == "count" and not t.expr.args
                for t in stmt.targets) and not any(
                self.db.relation(rv.relation).hooks["retrieve"]
                for rv in stmt.range_vars)
            try:
                order, rows_by, positions = self._vector_positions(
                    stmt, plan, bindings, on_probe, count_fast)
            except (ExecutionError, TypeError):
                # A batch kernel hit a data-dependent evaluation error
                # (NULL in a comparison, incomparable types) on a row
                # the row engine's short-circuit order might never have
                # reached.  Re-run sequentially so both the rows and
                # any error are exactly the row engine's.
                self._strategies().labels(vector.STRAT_SEQUENTIAL).inc()
                plan = None
        if plan is not None:
            if count_fast:
                fast_count = len(positions)
                combos = ()
            else:
                combos = self._position_combos(order, rows_by, positions,
                                               bindings)
        else:
            combos = self._sequential_combos(stmt, where, bindings,
                                             on_probe)
        for combo in combos:
            self._fire_retrieve(stmt.range_vars, combo)
            if aggregate_mode:
                for i, target in enumerate(stmt.targets):
                    call = target.expr
                    if call.args:
                        acc[i].append(self._eval(call.args[0], combo))
                    else:
                        acc[i].append(1)
            else:
                rows.append({t.name: self._eval(t.expr, combo)
                             for t in stmt.targets})
        if fast_count is not None:
            rows = [{t.name: fast_count for t in stmt.targets}]
        elif aggregate_mode:
            row = {}
            for i, target in enumerate(stmt.targets):
                row[target.name] = self._aggregate(target.expr.name, acc[i])
            rows = [row]
        if stmt.unique:
            seen: set = set()
            deduped = []
            for row in rows:
                key = tuple(sorted((k, repr(v)) for k, v in row.items()))
                if key not in seen:
                    seen.add(key)
                    deduped.append(row)
            rows = deduped
        if stmt.order_by:
            # Stable multi-key sort: apply keys right-to-left.
            for expr, ascending in reversed(stmt.order_by):
                rows.sort(key=lambda row, e=expr: self._order_key(e, row),
                          reverse=not ascending)
        result = Result(columns=columns, rows=rows)
        if stmt.into is not None:
            self._materialise_into(stmt.into, result)
        return result

    def _order_key(self, expr: QlExpr, row: dict):
        # Order-by expressions are evaluated against the projected row:
        # a bare column name (parsed as ColumnRef(name, "")) refers to a
        # result column; var.column re-evaluation is not available after
        # projection, so qualified refs must also appear in the targets.
        if isinstance(expr, ColumnRef):
            name = expr.column or expr.var
            if name in row:
                return row[name]
        raise ExecutionError(
            f"order by key {expr} must name a result column")

    def _materialise_into(self, relation_name: str, result: Result) -> None:
        if relation_name not in self.db:
            columns = []
            sample = result.rows[0] if result.rows else {}
            for name in result.columns:
                value = sample.get(name)
                columns.append((name, _type_name(value)
                                if value is not None else "text"))
            self.db.create_table(relation_name, columns)
        relation = self.db.relation(relation_name)
        for row in result.rows:
            relation.insert(dict(row), fire_hooks=False)

    @staticmethod
    def _aggregate(name: str, values: list):
        if name == "count":
            return len(values)
        values = [v for v in values if v is not None]
        if not values:
            return None
        if name == "sum":
            return sum(values)
        if name == "avg":
            return sum(values) / len(values)
        if name == "min":
            return min(values)
        if name == "max":
            return max(values)
        raise ExecutionError(f"unknown aggregate {name!r}")

    def _on_probe(self, stmt: Retrieve):
        """The ``on <calendar>`` clause's calendar probe, resolved up
        front so an unknown calendar raises whatever the data."""
        if stmt.on_calendar is None:
            return None
        if not stmt.range_vars:
            raise ExecutionError("'on <calendar>' requires a from clause")
        self.db.resolve_calendar(stmt.on_calendar)
        return self.db.calendar_probe(stmt.on_calendar)

    def _valid_time_column(self, stmt: Retrieve) -> str:
        """The first range variable's valid-time column (``on``)."""
        relation = self.db.relation(stmt.range_vars[0].relation)
        column = relation.schema.valid_time_column
        if column is None:
            raise ExecutionError(
                f"relation {relation.name!r} has no valid-time column for "
                "'on <calendar>'")
        return column

    def _fire_retrieve(self, range_vars, combo: dict) -> None:
        for rv in range_vars:
            relation = self.db.relation(rv.relation)
            relation.notify_retrieve(combo[rv.var])

    # -- vectorized pipeline -------------------------------------------------------

    def _sequential_combos(self, stmt: Retrieve, where, bindings: dict,
                           on_probe) -> Iterator[dict]:
        """The row-at-a-time engine: nested-loop bindings, per-tuple
        calendar probe, full predicate recheck."""
        for combo in self._bindings(stmt.range_vars, where, bindings):
            if on_probe is not None:
                value = combo[stmt.range_vars[0].var].get(
                    self._valid_time_column(stmt))
                if value is None or not on_probe.contains(value):
                    continue
            if where is not None and not self._truthy(
                    self._eval(where, combo)):
                continue
            yield combo

    @staticmethod
    def _position_combos(order, rows_by, positions, extra: dict
                         ) -> Iterator[dict]:
        """Inflate position tuples back into binding dicts lazily."""
        for pos in positions:
            combo = dict(extra)
            for var, p in zip(order, pos):
                combo[var] = rows_by[var][p]
            yield combo

    def _strategies(self):
        """The ``db.join.strategy`` counter family."""
        return self.db.instrumentation.metrics.counter(
            "db.join.strategy",
            "Vectorized conjunct executions by chosen strategy",
            labels=("strategy",), max_series=8)

    def _vector_positions(self, stmt: Retrieve, plan, extra: dict,
                          on_probe, count_only: bool = False):
        """Run the batch pipeline ``plan`` records for a retrieve.

        Returns ``(order, rows_by, positions)``: the range-variable
        order, each variable's candidate row list, and the surviving
        combos as tuples of positions into those lists.  Combos carry
        positions, not dicts — binding dicts are only inflated for the
        tuples that survive every filter and join.  With ``count_only``
        only ``len(positions)`` is read, so a lone variable's selection
        vector comes back as it is, without a one-tuple per row.
        """
        strategies = self._strategies()
        for label in plan.strategies():
            strategies.labels(label).inc()
        batch_rows = self.db.instrumentation.metrics.histogram(
            "db.batch.rows",
            "Candidate batch sizes entering the vectorized pipeline")
        order = list(plan.order)
        env_base = dict(extra)
        rows_by: dict[str, list] = {}
        empty = (order, rows_by, [])
        for term in plan.const_terms:
            if not self._truthy(self._eval(term, env_base)):
                return empty
        sel_by: dict[str, Sequence[int]] = {}
        relations = {rv.var: self.db.relation(rv.relation)
                     for rv in stmt.range_vars}
        for var in order:
            rows, sel = self._vector_candidates(
                relations[var], var, plan, env_base, on_probe)
            batch_rows.observe(len(rows))
            rows_by[var] = rows
            sel_by[var] = sel
            if not sel:
                return empty
        on_filter = plan.on is not None and \
            plan.on.strategy == vector.STRAT_CALENDAR
        if count_only and len(order) == 1 and not on_filter:
            return order, rows_by, sel_by[order[0]]
        combos: list[tuple] = [(p,) for p in sel_by[order[0]]]
        idx_of = {order[0]: 0}
        for var in order[1:]:
            joins = plan.joins[var]
            if not joins:
                sel = sel_by[var]
                combos = [c + (p,) for c in combos for p in sel]
                idx_of[var] = len(idx_of)
            else:
                combos = self._vector_join(joins[0], combos, idx_of, var,
                                           rows_by, sel_by, env_base)
                idx_of[var] = len(idx_of)
                for edge in joins[1:]:
                    combos = self._edge_filter(edge.term, combos, idx_of,
                                               edge.vars(), rows_by,
                                               env_base)
            if not combos:
                return order, rows_by, []
        if on_filter:
            combos = self._on_filter(stmt, combos, rows_by, on_probe)
        return order, rows_by, combos

    def _vector_candidates(self, relation, var: str, plan, env_base: dict,
                           on_probe):
        """One variable's candidate rows plus its selection vector.

        The rows come from the access path the plan records — an index
        probe, the valid-time range scan of a leading ``within`` or of
        ``on <calendar>`` (:meth:`_range_rows`), or a scan; then the
        variable's remaining filters run in original conjunct order,
        each narrowing the selection vector (short-circuit: later
        filters only see survivors).  A probe value that is NULL or
        does not evaluate reads the relation by a scan instead, counted
        as a ``sequential fallback``: NULL keys are not indexed, yet
        the filter may still match them.
        """
        access = plan.access[var]
        filters = plan.filters_of(var)
        rows = None
        if access.kind == "probe":
            try:
                value = self._eval(access.value, env_base)
            except ExecutionError:
                value = None
            if value is None:
                self._strategies().labels(vector.STRAT_SEQUENTIAL).inc()
            else:
                get = relation.get
                rows = [row for row in map(get, relation.indexes[
                    access.column].lookup_eq(value)) if row is not None]
        elif access.kind == "range":
            probe = on_probe if access.served is None else \
                self.db.calendar_probe(access.calendar_ref)
            rows = self._range_rows(relation, access.column, probe)
            filters = [f for f in filters if f is not access.served]
        if rows is None:
            rows = relation.scan()
        sel = range(len(rows))
        for f in filters:
            if not sel:
                break
            if isinstance(f, vector.WithinFilter):
                sel = self._batched_within(rows, sel, f)
                continue
            fast = self._lane_filter(rows, sel, var, f.term, env_base)
            if fast is not None:
                sel = fast
                continue
            env = dict(env_base)
            term = f.term
            out = []
            for p in sel:
                env[var] = rows[p]
                if self._truthy(self._eval(term, env)):
                    out.append(p)
            sel = out
        return rows, sel

    @staticmethod
    def _range_rows(relation, column: str, probe) -> _TidRows:
        """The valid-time range scan: the rows whose ``column`` tick
        lies in one of the calendar's runs over the index's key range —
        counted from the index's per-key counts or one bisect pair per
        run, rows fetched only when read."""
        index = relation.indexes[column]
        span = index.key_range()
        return _TidRows(relation, index,
                        [] if span is None else probe.runs(*span))

    #: Builtin comparison semantics of :meth:`_builtin_binop`, for the
    #: lane fast path (arithmetic ops never appear as whole conjuncts).
    _LANE_CMP = {
        "=": lambda a, b: a == b, "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
    }

    def _lane_filter(self, rows, sel, var: str, term,
                     env_base: dict) -> "list[int] | None":
        """Batch-evaluate a ``var.col <cmp> const`` filter over the lane.

        Returns the narrowed selection vector, or None when the term
        is not that shape (or a user-registered operator could
        intercept the comparison for some type pair) — the caller then
        falls back to per-row evaluation, which resolves custom
        operators per value type.  A TypeError from an incomparable
        pair (NULL in ``<``, say) propagates: ``_retrieve`` retreats to
        the sequential path, which re-raises or short-circuits exactly
        as the row engine would.
        """
        if not (isinstance(term, BinOp) and term.op in self._LANE_CMP):
            return None
        if term.op in self.db.operators:
            return None
        cmp = self._LANE_CMP[term.op]
        for colref, other, flipped in ((term.left, term.right, False),
                                       (term.right, term.left, True)):
            if not (isinstance(colref, ColumnRef) and
                    colref.var == var and colref.column):
                continue
            if isinstance(other, Const):
                value = other.value
            elif (isinstance(other, ColumnRef) and not other.column
                  and other.var in env_base):
                value = env_base[other.var]  # bound parameter
            else:
                continue
            column = colref.column
            if sel and column not in rows[sel[0]]:
                raise ExecutionError(
                    f"tuple variable {var!r} has no column {column!r}")
            if flipped:
                return [p for p in sel if cmp(value, rows[p][column])]
            return [p for p in sel if cmp(rows[p][column], value)]
        return None

    def _batched_within(self, rows, sel, f) -> list[int]:
        """Batched calendar probe for ``var.col within "<calendar>"``:
        gathers the tick lane over the surviving positions and asks the
        calendar's probe once per distinct tick."""
        values = []
        for p in sel:
            row = rows[p]
            if f.column not in row:
                raise ExecutionError(
                    f"tuple variable {f.var!r} has no column "
                    f"{f.column!r}")
            values.append(row[f.column])
        member = self.db.calendar_probe(f.calendar_ref).members(values)
        return [p for p, hit in zip(sel, member) if hit]

    def _vector_join(self, edge, combos, idx_of, var: str, rows_by,
                     sel_by, env_base: dict):
        """Extend combos with ``var`` through one join edge."""
        if isinstance(edge, vector.EquiEdge):
            if edge.left_var == var:
                vcol, bvar, bcol = (edge.left_col, edge.right_var,
                                    edge.right_col)
            else:
                vcol, bvar, bcol = (edge.right_col, edge.left_var,
                                    edge.left_col)
            return self._hash_join(edge.term, combos, idx_of[bvar], bvar,
                                   bcol, var, vcol, rows_by, sel_by,
                                   env_base)
        return self._sweep_join(edge, combos, idx_of, var, rows_by,
                                sel_by)

    def _hash_join(self, term, combos, bidx: int, bvar: str, bcol: str,
                   var: str, vcol: str, rows_by, sel_by, env_base: dict):
        """Order-preserving hash join, the table built on the smaller
        input: the new variable's selection, or the combos so far when
        they are fewer.  The other input streams through the table in
        order, and the matched (combo, selection) index pairs come out
        sorted by combo index — Python's sort is stable, so each
        combo's matches stay in selection order, the nested loop's."""
        sel = sel_by[var]
        rows_b, rows_v = rows_by[bvar], rows_by[var]
        bpos = [c[bidx] for c in combos]
        build, probe = (rows_b, bpos, bcol, bvar), (rows_v, sel, vcol, var)
        build_combos = len(combos) < len(sel)
        if not build_combos:
            build, probe = probe, build
        probe_rows, probe_pos, pcol, pvar = probe
        try:
            get = self._key_table(*build).get
            found = [get(probe_rows[p][pcol]) for p in probe_pos]
        except KeyError:
            raise ExecutionError(
                f"tuple variable {pvar!r} has no column {pcol!r}") \
                from None
        except TypeError:
            return self._pairwise_edge_join(term, combos, bidx, bvar,
                                            var, rows_by, sel_by,
                                            env_base)
        # (probe index, build index) for each match, in probe order.
        pairs = [(k, i) for k in compress(range(len(found)), found)
                 for i in found[k]]
        if build_combos:
            pairs.sort(key=itemgetter(1))
            return [combos[i] + (sel[k],) for k, i in pairs]
        return [combos[k] + (sel[i],) for k, i in pairs]

    @staticmethod
    def _key_table(rows, positions, column: str, var: str) -> dict:
        """A hash join's table: each ``rows[p][column]`` key maps to the
        ascending indices into ``positions`` that hold it.  NaN keys
        equal nothing, themselves included, so they are left out; an
        unhashable key raises ``TypeError``."""
        table: dict = {}
        try:
            for i, p in enumerate(positions):
                key = rows[p][column]
                try:
                    if key != key:
                        continue
                except Exception:
                    pass
                table.setdefault(key, []).append(i)
        except KeyError:
            raise ExecutionError(
                f"tuple variable {var!r} has no column {column!r}") \
                from None
        return table

    def _pairwise_edge_join(self, term, combos, bidx: int, bvar: str,
                            var: str, rows_by, sel_by, env_base: dict):
        """Escape hatch for unhashable join keys: evaluate the conjunct
        per pair, exactly like the row engine (counted as a
        ``sequential fallback``)."""
        self._strategies().labels(vector.STRAT_SEQUENTIAL).inc()
        rows_b, rows_v = rows_by[bvar], rows_by[var]
        sel = sel_by[var]
        env = dict(env_base)
        out: list[tuple] = []
        for c in combos:
            env[bvar] = rows_b[c[bidx]]
            for p in sel:
                env[var] = rows_v[p]
                if self._truthy(self._eval(term, env)):
                    out.append(c + (p,))
        return out

    def _edge_filter(self, term, combos, idx_of, vars_pair, rows_by,
                     env_base: dict):
        """Apply a secondary join conjunct to already-joined combos."""
        v1, v2 = vars_pair
        i1, i2 = idx_of[v1], idx_of[v2]
        rows1, rows2 = rows_by[v1], rows_by[v2]
        env = dict(env_base)
        out: list[tuple] = []
        for c in combos:
            env[v1] = rows1[c[i1]]
            env[v2] = rows2[c[i2]]
            if self._truthy(self._eval(term, env)):
                out.append(c)
        return out

    def _sweep_join(self, edge, combos, idx_of, var: str, rows_by,
                    sel_by):
        """Endpoint-sweep interval join for ``overlaps``/``during``.

        Regular intervals (``lo <= hi``, no None endpoint) go through
        :func:`repro.core.columnar.interval_join_pairs`; irregular rows
        (inverted, NaN, None) are matched through the scalar builtin
        predicate so the pair set is identical to the row engine's.
        """
        lvar, rvar = edge.left_var, edge.right_var
        bvar = rvar if lvar == var else lvar
        bidx = idx_of[bvar]
        pred = self.db.builtin_interval_predicates[edge.op]

        def lanes(v, lo_col, hi_col):
            rows, sel = rows_by[v], sel_by[v]
            regular: list[tuple] = []
            irregular: list[int] = []
            for p in sel:
                row = rows[p]
                if lo_col not in row or hi_col not in row:
                    missing = lo_col if lo_col not in row else hi_col
                    raise ExecutionError(
                        f"tuple variable {v!r} has no column "
                        f"{missing!r}")
                lo, hi = row[lo_col], row[hi_col]
                if lo is not None and hi is not None and lo <= hi:
                    regular.append((lo, hi, p))
                else:
                    irregular.append(p)
            regular.sort(key=lambda e: e[0])
            return regular, irregular

        a_reg, a_irr = lanes(lvar, edge.left_lo, edge.left_hi)
        b_reg, b_irr = lanes(rvar, edge.right_lo, edge.right_hi)
        pairs = interval_join_pairs(
            [e[0] for e in a_reg], [e[1] for e in a_reg],
            [e[0] for e in b_reg], [e[1] for e in b_reg],
            predicate=edge.op)
        matches: dict[int, list[int]] = {}
        if lvar == var:
            for i, j in pairs:
                matches.setdefault(b_reg[j][2], []).append(a_reg[i][2])
        else:
            for i, j in pairs:
                matches.setdefault(a_reg[i][2], []).append(b_reg[j][2])
        if a_irr or b_irr:
            rows_l, rows_r = rows_by[lvar], rows_by[rvar]

            def note(pa, pb):
                if lvar == var:
                    matches.setdefault(pb, []).append(pa)
                else:
                    matches.setdefault(pa, []).append(pb)

            def scalar_pairs(ps_a, ps_b):
                for pa in ps_a:
                    ra = rows_l[pa]
                    alo, ahi = ra[edge.left_lo], ra[edge.left_hi]
                    for pb in ps_b:
                        rb = rows_r[pb]
                        if self._truthy(pred(alo, ahi,
                                             rb[edge.right_lo],
                                             rb[edge.right_hi])):
                            note(pa, pb)

            scalar_pairs(a_irr, sel_by[rvar])
            scalar_pairs([e[2] for e in a_reg], b_irr)
        for bucket in matches.values():
            bucket.sort()
        out: list[tuple] = []
        for c in combos:
            bucket = matches.get(c[bidx])
            if bucket:
                out.extend(c + (p,) for p in bucket)
        return out

    def _on_filter(self, stmt: Retrieve, combos, rows_by, on_probe):
        """One batched membership pass for the ``on <calendar>``
        clause over the surviving first-variable positions (NULL ticks
        are never on a calendar)."""
        column = self._valid_time_column(stmt)
        rows = rows_by[stmt.range_vars[0].var]
        ticked = [p for p in {c[0] for c in combos}
                  if rows[p][column] is not None]
        member = on_probe.members([rows[p][column] for p in ticked])
        keep = {p for p, hit in zip(ticked, member) if hit}
        return [c for c in combos if c[0] in keep]

    # -- binding enumeration -------------------------------------------------------

    @staticmethod
    def _pushdown(range_vars, where: QlExpr | None, extra) -> dict:
        """Predicate pushdown: each conjunct under the join level at
        which every variable it references is bound (names in
        ``extra`` are bound from the start)."""
        by_level: dict[int, list] = {}
        for term in vector.conjuncts(where):
            remaining: set = set()
            vector.referenced_vars(term, remaining)
            remaining -= set(extra)
            level = max(0, len(range_vars) - 1)
            for i, rv in enumerate(range_vars):
                remaining.discard(rv.var)
                if not remaining:
                    level = i
                    break
            by_level.setdefault(level, []).append(term)
        return by_level

    def _bindings(self, range_vars, where: QlExpr | None,
                  extra: dict) -> Iterator[dict]:
        if not range_vars:
            yield dict(extra)
            return
        # A conjunct is evaluated as soon as every variable it
        # references is bound, pruning the join early.
        by_level = self._pushdown(range_vars, where, extra)

        def recurse(index: int, current: dict) -> Iterator[dict]:
            if index == len(range_vars):
                yield dict(current)
                return
            rv = range_vars[index]
            relation = self.db.relation(rv.relation)
            as_of = None
            if rv.as_of is not None:
                as_of = self._eval(rv.as_of, current)
                if not isinstance(as_of, int):
                    raise ExecutionError(
                        "'as of' must evaluate to a transaction id")
            level_terms = by_level.get(index, ())
            for row in self._candidate_rows(relation, rv.var, where,
                                            current, as_of):
                current[rv.var] = row
                if all(self._truthy(self._eval(term, current))
                       for term in level_terms):
                    yield from recurse(index + 1, current)
            current.pop(rv.var, None)

        yield from recurse(0, dict(extra))

    def _candidate_rows(self, relation, var: str, where: QlExpr | None,
                        bound: dict, as_of: int | None = None):
        """Rows of ``relation``, restricted via an index when possible.

        Historical (``as of``) scans bypass indexes — they cover live
        tuples only.
        """
        if as_of is not None:
            yield from relation.scan(as_of=as_of)
            return
        probe = self._index_probe(relation, var, where, bound)
        if probe is not None:
            for tid in probe:
                row = relation.get(tid)
                if row is not None:
                    yield row
            return
        yield from relation.scan()

    def _index_probe(self, relation, var: str, where: QlExpr | None,
                     bound: dict):
        """tids for an equality predicate ``var.col = <evaluable>``."""
        if where is None:
            return None
        for column, value in self._equality_terms(where, var, bound):
            if value is None:
                # None keys are not indexed, yet ``None = None`` joins —
                # a None probe must fall back to the scan.
                continue
            index = relation.indexes.get(column)
            if isinstance(index, OrderedIndex):
                return index.lookup_eq(value)
        return None

    def _equality_terms(self, expr: QlExpr, var: str, bound: dict):
        """Yield (column, value) for top-level AND-ed equality terms."""
        if isinstance(expr, BinOp):
            if expr.op == "and":
                yield from self._equality_terms(expr.left, var, bound)
                yield from self._equality_terms(expr.right, var, bound)
                return
            if expr.op == "=":
                for colref, other in ((expr.left, expr.right),
                                      (expr.right, expr.left)):
                    if isinstance(colref, ColumnRef) and \
                            colref.var == var and colref.column:
                        try:
                            yield colref.column, self._eval(other, bound)
                        except ExecutionError:
                            pass

    # -- mutation -----------------------------------------------------------------

    def _append(self, stmt: Append, bindings: dict) -> Result:
        self.db.begin_xact()
        relation = self.db.relation(stmt.relation)
        values = {column: self._eval(expr, bindings)
                  for column, expr in stmt.assignments}
        relation.insert(values)
        return Result(affected=1)

    def _mutation_targets(self, var: str, range_vars, where,
                          bindings: dict) -> tuple[list[dict], list]:
        range_vars = list(range_vars)
        if not any(rv.var == var for rv in range_vars):
            # Implicit range over the relation named by the variable.
            from repro.db.ql.ast import RangeVar
            range_vars.append(RangeVar(var, var))
        combos = []
        for combo in self._bindings(tuple(range_vars), where, bindings):
            if where is None or self._truthy(self._eval(where, combo)):
                combos.append(combo)
        return combos, range_vars

    def _replace(self, stmt: Replace, bindings: dict) -> Result:
        self.db.begin_xact()
        combos, range_vars = self._mutation_targets(
            stmt.var, stmt.range_vars, stmt.where, bindings)
        relation_name = next(rv.relation for rv in range_vars
                             if rv.var == stmt.var)
        relation = self.db.relation(relation_name)
        affected = 0
        seen: set[int] = set()
        for combo in combos:
            row = combo[stmt.var]
            if row["_tid"] in seen:
                continue
            seen.add(row["_tid"])
            changes = {column: self._eval(expr, combo)
                       for column, expr in stmt.assignments}
            relation.update(row["_tid"], changes)
            affected += 1
        return Result(affected=affected)

    def _delete(self, stmt: Delete, bindings: dict) -> Result:
        self.db.begin_xact()
        combos, range_vars = self._mutation_targets(
            stmt.var, stmt.range_vars, stmt.where, bindings)
        relation_name = next(rv.relation for rv in range_vars
                             if rv.var == stmt.var)
        relation = self.db.relation(relation_name)
        affected = 0
        seen: set[int] = set()
        for combo in combos:
            row = combo[stmt.var]
            if row["_tid"] in seen:
                continue
            seen.add(row["_tid"])
            relation.delete(row["_tid"])
            affected += 1
        return Result(affected=affected)

    # -- expression evaluation ---------------------------------------------------------

    def _eval(self, expr: QlExpr, bindings: dict):
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, ColumnRef):
            return self._eval_column_ref(expr, bindings)
        if isinstance(expr, UnOp):
            value = self._eval(expr.operand, bindings)
            if expr.op == "not":
                return not self._truthy(value)
            if expr.op == "-":
                return -value
            raise ExecutionError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, BinOp):
            return self._eval_binop(expr, bindings)
        if isinstance(expr, FuncCall):
            return self._eval_funcall(expr, bindings)
        raise ExecutionError(f"cannot evaluate {expr!r}")

    def _eval_column_ref(self, expr: ColumnRef, bindings: dict):
        key = expr.var
        row = bindings.get(key)
        if row is None and key.lower() in ("new", "current"):
            row = bindings.get(key.lower())
        if row is None:
            if not expr.column and key in bindings:
                return bindings[key]
            if not expr.column:
                raise ExecutionError(f"unbound variable {key!r}")
            raise ExecutionError(f"unbound tuple variable {key!r}")
        if not expr.column:
            return row
        if isinstance(row, dict):
            if expr.column not in row:
                raise ExecutionError(
                    f"tuple variable {key!r} has no column {expr.column!r}")
            return row[expr.column]
        raise ExecutionError(f"{key!r} is not a tuple variable")

    def _eval_binop(self, expr: BinOp, bindings: dict):
        if expr.op == "and":
            return (self._truthy(self._eval(expr.left, bindings))
                    and self._truthy(self._eval(expr.right, bindings)))
        if expr.op == "or":
            return (self._truthy(self._eval(expr.left, bindings))
                    or self._truthy(self._eval(expr.right, bindings)))
        left = self._eval(expr.left, bindings)
        right = self._eval(expr.right, bindings)
        operators = self.db.operators
        # Typing the operands costs more than the builtin operator
        # itself; a name no operator has cannot resolve to one.
        if expr.op in operators:
            custom = operators.resolve(expr.op, _type_name(left),
                                       _type_name(right))
            if custom is not None:
                return custom(left, right)
        return self._builtin_binop(expr.op, left, right)

    def _builtin_binop(self, op: str, left, right):
        if op == "within":
            return self.db.calendar_probe(right).contains(left)
        try:
            if op == "=":
                return left == right
            if op == "!=":
                return left != right
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                return left / right
            if op == "%":
                return left % right
            if op == "||":
                return str(left) + str(right)
        except TypeError as exc:
            raise ExecutionError(
                f"operator {op!r} not applicable to "
                f"{_type_name(left)}/{_type_name(right)}: {exc}") from exc
        raise ExecutionError(f"unknown operator {op!r}")

    def _eval_funcall(self, expr: FuncCall, bindings: dict):
        if expr.name in AGGREGATES:
            raise ExecutionError(
                f"aggregate {expr.name!r} is only allowed as a whole "
                "retrieve target list")
        func = self.db.functions.resolve(expr.name)
        if func is None:
            raise ExecutionError(f"unknown function {expr.name!r}")
        args = [self._eval(a, bindings) for a in expr.args]
        return func(*args)

    @staticmethod
    def _truthy(value) -> bool:
        if value is None:
            return False
        if isinstance(value, Calendar):
            return not value.is_empty()
        return bool(value)
