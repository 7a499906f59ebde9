"""Query execution for the Postquel-like language.

Two engines share this module:

* the historical **row-at-a-time** engine: nested-loop joins over the
  from-clause range variables with predicate pushdown, an
  :class:`~repro.db.index.OrderedIndex` probe for
  ``var.col = <const>`` conjuncts, and a per-tuple
  :class:`~repro.db.index.IntervalIndex` probe for ``on <calendar>``;
* the **vectorized** engine (the default): retrieve
  statements whose predicate classifies cleanly (see
  :mod:`repro.db.vector`) run as a batch pipeline — per-variable
  selection vectors with valid-time range scans and batched calendar
  probes, hash / sort-merge equi-joins, Piatov-style endpoint sweeps
  for ``overlaps``/``during`` conjuncts, and a range scan or one
  batched calendar-membership pass for the ``on <calendar>`` clause.
  Anything the planner cannot classify (historical ``as of`` scans,
  overridden operators, cross-variable arithmetic, …) falls back to
  the row engine wholesale, so the two always agree tuple-for-tuple.

Operator dispatch goes through the extensible
:class:`~repro.db.types.OperatorRegistry` first (so user-declared ADT
operators — the POSTGRES extensibility story — take precedence), falling
back to built-in arithmetic/comparison semantics.

``retrieve`` fires a *retrieve* event for every tuple that contributes to
the result, which is what lets event rules monitor reads (section 4).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator, Sequence

from repro.core.calendar import Calendar
from repro.core.chrono import CivilDate
from repro.core.columnar import interval_join_pairs
from repro.db import vector
from repro.db.errors import ExecutionError, SchemaError
from repro.db.index import IntervalIndex, OrderedIndex
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
from repro.errors import ReproError

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


def _clip_runs(los, his, lo: int, hi: int) -> list[tuple[int, int]]:
    """The coverage of endpoint lanes inside ``[lo, hi]`` as ascending,
    disjoint inclusive runs, split around tick 0 (never a member).

    Both lanes must be nondecreasing; overlapping and adjacent
    intervals merge, so a run of single-day intervals costs one run.
    """
    merged: list[list[int]] = []
    for i in range(bisect_left(his, lo), len(los)):
        a = los[i]
        if a > hi:
            break
        b = his[i]
        if merged and a <= merged[-1][1] + 1:
            if b > merged[-1][1]:
                merged[-1][1] = b
        else:
            merged.append([a, b])
    if merged:
        merged[0][0] = max(merged[0][0], lo)
        merged[-1][1] = min(merged[-1][1], hi)
    out: list[tuple[int, int]] = []
    for a, b in merged:
        if a <= 0 <= b:
            if a < 0:
                out.append((a, -1))
            if b > 0:
                out.append((1, b))
        else:
            out.append((a, b))
    return out


class _TidRows:
    """A range scan's candidate rows, named by tid and fetched on first
    access.

    A hook-free ``count()`` only takes the length, so it fetches no row
    dict at all.  Any other consumer's first access sorts the tids
    ascending (scan order) and fetches every row; that happens before
    any selection narrows the candidates, so positions always index the
    sorted list.
    """

    __slots__ = ("_relation", "_tids", "_rows")

    def __init__(self, relation, tids: list) -> None:
        self._relation = relation
        self._tids = tids
        self._rows = None

    def __len__(self) -> int:
        return len(self._tids)

    def __getitem__(self, p: int) -> dict:
        rows = self._rows
        if rows is None:
            self._tids.sort()
            get = self._relation.get
            rows = self._rows = [get(tid) for tid in self._tids]
        return rows[p]


class Executor:
    """Executes statements against a :class:`repro.db.database.Database`."""

    def __init__(self, database) -> None:
        self.db = database

    # -- public ------------------------------------------------------------------

    def execute(self, statement: Statement,
                bindings: dict | None = None) -> Result:
        """Run one parsed statement with optional variable bindings.

        Every execution is timed into the ``db.query.latency`` histogram
        and the per-relation ``db.relation.query_seconds`` family
        (exemplar-linked to the executor span's trace id when tracing
        is on) and — with tracing on — wrapped in an
        ``executor.<Kind>`` span;
        with a telemetry pipeline attached a ``query.execute`` event
        records the statement kind and result cardinality.  The
        instrumentation bundle is looked up per call because a session
        may swap the database's bundle after this executor was built.
        """
        inst = self.db.instrumentation
        kind = type(statement).__name__
        tracer = inst.tracer
        t0 = perf_counter()
        trace_id = None
        if tracer is not None:
            with tracer.span(f"executor.{kind}") as span:
                result = self._dispatch(statement, bindings)
            # Past the per-trace span budget the tracer hands out a
            # timing-free stand-in with no trace id to link to.
            trace_id = getattr(span, "trace_id", None)
        else:
            result = self._dispatch(statement, bindings)
        elapsed = perf_counter() - t0
        inst.metrics.histogram("db.query.latency").observe(elapsed)
        inst.metrics.histogram(
            "db.relation.query_seconds",
            "Query latency per target relation",
            labels=("relation",), max_series=128,
        ).labels(self._statement_relation(statement)) \
            .observe(elapsed, trace_id)
        if inst.pipeline is not None:
            inst.pipeline.emit("query.execute", kind=kind,
                               rows=len(result.rows),
                               affected=result.affected,
                               duration_s=elapsed)
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

        Reports, per range variable: scan strategy (sequential, index
        probe, or historical ``as of`` scan) and the predicate conjuncts
        evaluated at that join level (the pushdown placement), plus any
        ``on <calendar>`` restriction and post-processing steps.

        When the statement classifies for the vectorized engine, a
        ``vectorized pipeline`` section lists the chosen strategy per
        conjunct (``hash join``, ``merge join``, ``endpoint sweep``,
        ``valid-time range scan``, ``batched calendar sweep``,
        ``sequential fallback``), naming why the range scan declined
        where a batched calendar sweep stands in for it; otherwise a
        ``vectorized: off`` line states why — e.g. that an ``as of``
        historical scan forces the sequential path.
        """
        if not isinstance(statement, Retrieve):
            raise ExecutionError("explain supports retrieve statements")
        lines: list[str] = []
        conjuncts = []
        for term in self._conjuncts(statement.where):
            refs: set = set()
            self._referenced_vars(term, refs)
            level = 0
            remaining = set(refs)
            for i, rv in enumerate(statement.range_vars):
                remaining.discard(rv.var)
                if not remaining:
                    level = i
                    break
            else:
                level = max(0, len(statement.range_vars) - 1)
            conjuncts.append((level, term))
        for i, rv in enumerate(statement.range_vars):
            relation = self.db.relation(rv.relation)
            if rv.as_of is not None:
                strategy = f"historical scan (as of {rv.as_of})"
            else:
                strategy = "sequential scan"
                for column, _ in self._equality_terms(
                        statement.where, rv.var, {})                         if statement.where is not None else ():
                    if isinstance(relation.indexes.get(column),
                                  OrderedIndex):
                        strategy = f"index probe on {rv.relation}.{column}"
                        break
            lines.append(f"{'  ' * i}-> {rv.var} in {rv.relation}: "
                         f"{strategy}")
            terms = [str(t) for lvl, t in conjuncts if lvl == i]
            if terms:
                lines.append(f"{'  ' * i}   filter: "
                             + " and ".join(terms))
        plan, reason = (vector.plan_retrieve(statement, self.db, set())
                        if statement.range_vars else (None, None))
        if statement.on_calendar:
            probe = "interval index"
            if plan is not None:
                decline = self._on_range_decline(statement, plan)
                probe = vector.STRAT_RANGE if decline is None else (
                    f"{vector.STRAT_CALENDAR}; range scan declined: "
                    f"{decline}")
            lines.append(f"valid-time restriction: on "
                         f"{statement.on_calendar!r} ({probe})")
        if plan is not None:
            strategies = self._vector_strategies(statement, plan)
            if strategies:
                lines.append("vectorized pipeline:")
                for term, strategy in strategies:
                    lines.append(f"  {term}: {strategy}")
            else:
                lines.append("vectorized pipeline: full scan, no predicate")
        elif reason is not None:
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
        calendar_index = self._on_calendar_index(stmt)
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
                    stmt, plan, bindings, calendar_index, count_fast)
            except (ExecutionError, TypeError):
                # A batch kernel hit a data-dependent evaluation error
                # (NULL in a comparison, incomparable types) on a row
                # the row engine's short-circuit order might never have
                # reached.  Re-run sequentially so both the rows and
                # any error are exactly the row engine's.
                self.db.instrumentation.metrics.counter(
                    "db.join.strategy",
                    "Vectorized conjunct executions by chosen strategy",
                    labels=("strategy",), max_series=8,
                ).labels(vector.STRAT_SEQUENTIAL).inc()
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
                                             calendar_index)
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

    def _on_calendar_index(self, stmt: Retrieve) -> IntervalIndex | None:
        if stmt.on_calendar is None:
            return None
        if not stmt.range_vars:
            raise ExecutionError("'on <calendar>' requires a from clause")
        return IntervalIndex(self.db.resolve_calendar(stmt.on_calendar))

    def _valid_time_ok(self, stmt: Retrieve, combo: dict,
                       index: IntervalIndex) -> bool:
        var = stmt.range_vars[0].var
        relation = self.db.relation(stmt.range_vars[0].relation)
        column = relation.schema.valid_time_column
        if column is None:
            raise ExecutionError(
                f"relation {relation.name!r} has no valid-time column for "
                "'on <calendar>'")
        value = combo[var].get(column)
        return value is not None and index.contains(value)

    def _fire_retrieve(self, range_vars, combo: dict) -> None:
        for rv in range_vars:
            relation = self.db.relation(rv.relation)
            relation.notify_retrieve(combo[rv.var])

    # -- vectorized pipeline -------------------------------------------------------

    def _sequential_combos(self, stmt: Retrieve, where, bindings: dict,
                           calendar_index) -> Iterator[dict]:
        """The row-at-a-time engine: nested-loop bindings, per-tuple
        calendar probe, full predicate recheck."""
        for combo in self._bindings(stmt.range_vars, where, bindings):
            if calendar_index is not None and not self._valid_time_ok(
                    stmt, combo, calendar_index):
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

    def _vector_positions(self, stmt: Retrieve, plan, extra: dict,
                          calendar_index, count_only: bool = False):
        """Run the batch pipeline for a classified retrieve.

        Returns ``(order, rows_by, positions)``: the range-variable
        order, each variable's candidate row list, and the surviving
        combos as tuples of positions into those lists.  Combos carry
        positions, not dicts — binding dicts are only inflated for the
        tuples that survive every filter and join.  With ``count_only``
        only ``len(positions)`` is read, so a lone variable's selection
        vector comes back as it is, without a one-tuple per row.
        """
        metrics = self.db.instrumentation.metrics
        strategies = metrics.counter(
            "db.join.strategy",
            "Vectorized conjunct executions by chosen strategy",
            labels=("strategy",), max_series=8)
        batch_rows = metrics.histogram(
            "db.batch.rows",
            "Candidate batch sizes entering the vectorized pipeline")
        order = list(plan.order)
        env_base = dict(extra)
        rows_by: dict[str, list] = {}
        empty = (order, rows_by, [])
        for term in plan.const_terms:
            strategies.labels(vector.STRAT_SEQUENTIAL).inc()
            if not self._truthy(self._eval(term, env_base)):
                return empty
        sel_by: dict[str, list[int]] = {}
        full_by: dict[str, bool] = {}
        on_tids = None
        if calendar_index is not None and \
                self._on_range_decline(stmt, plan) is None:
            strategies.labels(vector.STRAT_RANGE).inc()
            relation = self.db.relation(stmt.range_vars[0].relation)
            los, his = calendar_index.lanes()
            on_tids = self._range_tids(
                relation.indexes[relation.schema.valid_time_column],
                lambda lo, hi: _clip_runs(los, his, lo, hi))
        for rv in stmt.range_vars:
            relation = self.db.relation(rv.relation)
            rows, sel, full = self._vector_candidates(
                relation, rv.var, plan, env_base, strategies,
                on_tids if rv is stmt.range_vars[0] else None)
            batch_rows.observe(len(rows))
            rows_by[rv.var] = rows
            sel_by[rv.var] = sel
            full_by[rv.var] = full
            if not sel:
                return empty
        if count_only and len(order) == 1 and (calendar_index is None or
                                               on_tids is not None):
            return order, rows_by, sel_by[order[0]]
        combos: list[tuple] = [(p,) for p in sel_by[order[0]]]
        idx_of = {order[0]: 0}
        edges_left = list(plan.edges)
        relations = {rv.var: self.db.relation(rv.relation)
                     for rv in stmt.range_vars}
        base_pair = True  # combos are still exactly var0's candidates
        for var in order[1:]:
            applicable = [e for e in edges_left
                          if var in e.vars() and
                          (set(e.vars()) - {var}) <= set(idx_of)]
            if not applicable:
                sel = sel_by[var]
                combos = [c + (p,) for c in combos for p in sel]
            else:
                primary = applicable[0]
                combos = self._vector_join(
                    primary, combos, idx_of, var, rows_by, sel_by,
                    full_by, relations, base_pair, env_base, strategies)
                idx_of[var] = len(idx_of)
                for edge in applicable[1:]:
                    strategies.labels(vector.STRAT_SEQUENTIAL).inc()
                    combos = self._edge_filter(edge.term, combos, idx_of,
                                               edge.vars(), rows_by,
                                               env_base)
                for edge in applicable:
                    edges_left.remove(edge)
            if var not in idx_of:
                idx_of[var] = len(idx_of)
            base_pair = False
            if not combos:
                return order, rows_by, []
        if calendar_index is not None and on_tids is None and combos:
            strategies.labels(vector.STRAT_CALENDAR).inc()
            combos = self._vector_calendar_filter(stmt, combos, rows_by,
                                                  calendar_index)
        return order, rows_by, combos

    def _vector_candidates(self, relation, var: str, plan, env_base: dict,
                           strategies, tids=None):
        """One variable's candidate rows plus its selection vector.

        Mirrors the row engine's per-level behaviour: an equality
        filter with an :class:`OrderedIndex` bootstraps the candidate
        set via an index probe, else a leading ``within`` filter takes
        the valid-time range scan (:meth:`_within_range`), else the
        relation is scanned; then the variable's remaining filters run
        in original conjunct order, each narrowing the selection vector
        (short-circuit: later filters only see survivors).  ``tids``
        are candidates the caller already took from the valid-time
        index (the ``on <calendar>`` range scan).  ``full`` is True only
        for an unfiltered full scan — the precondition for feeding a
        sort-merge join straight from index lanes.
        """
        filters = plan.filters_of(var)
        probe = None
        if tids is None:
            probe = self._vector_probe(relation, var, filters, env_base)
        if probe is not None:
            rows = [row for row in (relation.get(tid) for tid in probe)
                    if row is not None]
        else:
            if tids is None:
                tids, _ = self._within_range(relation, filters)
                if tids is not None:
                    strategies.labels(vector.STRAT_RANGE).inc()
                    filters = filters[1:]
            rows = _TidRows(relation, tids) if tids is not None \
                else list(relation.scan())
        sel = list(range(len(rows)))
        for f in filters:
            if not sel:
                break
            if isinstance(f, vector.WithinFilter):
                strategies.labels(vector.STRAT_CALENDAR).inc()
                sel = self._batched_within(rows, sel, f)
            else:
                strategies.labels(vector.STRAT_SEQUENTIAL).inc()
                fast = self._lane_filter(rows, sel, var, f.term,
                                         env_base)
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
        full = probe is None and tids is None and not filters
        return rows, sel, full

    # -- valid-time range scan -------------------------------------------------

    def _range_decline(self, relation, column: str,
                       cover: bool) -> "str | None":
        """Why the valid-time range scan cannot read ``column``, or None.

        ``cover`` demands an index entry for every live row: ``within``
        raises on a NULL tick in the row engine, so an index that skips
        NULLs would drop the error.
        """
        if column not in relation.schema or \
                relation.schema.column(column).type_name != "abstime":
            return f"{column} is not an abstime column"
        index = relation.indexes.get(column)
        if not isinstance(index, OrderedIndex):
            return f"no ordered index on {column}"
        if cover and len(index) != len(relation):
            return "NULL ticks leave the index short of the live rows"
        return None

    @staticmethod
    def _range_tids(index: OrderedIndex, runs_of) -> "list[int] | None":
        """tids of the index keys inside ``runs_of(lo, hi)`` — the
        calendar's runs over the index's key range — unsorted; None
        when ``runs_of`` declines with None."""
        span = index.key_range()
        if span is None:
            return []
        runs = runs_of(*span)
        return None if runs is None else index.lookup_runs(runs)

    def _within_range(self, relation, filters):
        """``(tids, None)`` when the leading filter is a ``within`` the
        valid-time range scan answers, else ``(None, reason)`` — the
        reason is None when no ``within`` leads.  The caller has already
        preferred an equality probe."""
        f = filters[0] if filters else None
        if not isinstance(f, vector.WithinFilter):
            return None, None
        reason = self._range_decline(relation, f.column, cover=True)
        if reason is not None:
            return None, reason
        tids = self._range_tids(
            relation.indexes[f.column],
            lambda lo, hi: self._within_runs(f.calendar_ref, lo, hi))
        if tids is None:
            return None, "the calendar's lanes are unsorted"
        return tids, None

    def _within_runs(self, ref: str, lo: int, hi: int):
        """The members of calendar ``ref`` inside ``[lo, hi]`` as
        ascending runs (tick 0 excluded), from the source
        :meth:`_membership_map` probes: the compiled periodic set inside
        its safe range — so a cold read pays only the compile — and the
        resolved calendar's lanes outside it.  None when those lanes are
        needed but not sorted."""
        probe = self.db.resolve_periodic(ref)
        if probe is not None:
            pset, safe_lo, safe_hi = probe
            a, b = max(lo, safe_lo), min(hi, safe_hi)
            if a <= b:
                left = self._lane_runs(ref, lo, a - 1) if lo < a else []
                right = self._lane_runs(ref, b + 1, hi) if b < hi else []
                if left is None or right is None:
                    return None
                return left + pset.runs_between(a, b) + right
        return self._lane_runs(ref, lo, hi)

    def _lane_runs(self, ref: str, lo: int, hi: int):
        """Runs of the resolved calendar inside ``[lo, hi]``, or None
        when its endpoint lanes are not both nondecreasing."""
        cols = self.db.resolve_calendar(ref).flatten().columns
        if not cols.hi_sorted:  # both lanes nondecreasing
            return None
        return _clip_runs(cols.los, cols.his, lo, hi)

    def _on_range_decline(self, stmt: Retrieve, plan) -> "str | None":
        """Why ``on <calendar>`` cannot take the first variable's
        candidates from the valid-time index, or None.

        The row engine checks the calendar only once a whole combo is
        bound, after every conjunct; restricting the candidates first
        would skip a conjunct that raises on an excluded row, so the
        scan serves only an unjoined, unfiltered variable.  NULL ticks
        are never on a calendar, so partial coverage is fine here.
        """
        var = plan.order[0]
        if len(plan.order) > 1 or plan.filters_of(var):
            return "a filter or join reads the rows before the calendar"
        relation = self.db.relation(stmt.range_vars[0].relation)
        column = relation.schema.valid_time_column
        if column is None:
            return "no valid-time column"
        return self._range_decline(relation, column, cover=False)

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
        if term.op in self.db.operators.names():
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

    def _vector_probe(self, relation, var: str, filters,
                      env_base: dict):
        """tids from the first probeable equality filter, or None."""
        for f in filters:
            if isinstance(f, vector.WithinFilter):
                continue
            term = f.term
            if not (isinstance(term, BinOp) and term.op == "="):
                continue
            for colref, other in ((term.left, term.right),
                                  (term.right, term.left)):
                if isinstance(colref, ColumnRef) and \
                        colref.var == var and colref.column:
                    index = relation.indexes.get(colref.column)
                    if isinstance(index, OrderedIndex):
                        try:
                            value = self._eval(other, env_base)
                        except ExecutionError:
                            continue
                        if value is None:  # unindexed, see _index_probe
                            continue
                        return index.lookup_eq(value)
        return None

    def _batched_within(self, rows, sel, f) -> list[int]:
        """Batched calendar probe for ``var.col within "<calendar>"``.

        Gathers the valid-time lane over the surviving positions,
        resolves membership once per *distinct* tick (compiled
        periodic-set probe inside its safe range, one sorted merge pass
        over the calendar's endpoint lanes otherwise), then filters the
        selection vector through the resulting map.
        """
        values = []
        for p in sel:
            row = rows[p]
            if f.column not in row:
                raise ExecutionError(
                    f"tuple variable {f.var!r} has no column "
                    f"{f.column!r}")
            value = row[f.column]
            if not isinstance(value, int):
                raise ExecutionError(
                    "within expects an abstime tick on the left")
            values.append(value)
        member = self._membership_map(f.calendar_ref, sorted(set(values)))
        return [p for p, v in zip(sel, values) if member[v]]

    def _membership_map(self, ref: str, ticks: list) -> dict:
        """tick -> calendar membership for ascending distinct ticks."""
        member: dict = {}
        rest = ticks
        probe = self.db.resolve_periodic(ref)
        if probe is not None:
            pset, safe_lo, safe_hi = probe
            rest = []
            for t in ticks:
                if safe_lo <= t <= safe_hi:
                    member[t] = pset.contains(t)
                else:
                    rest.append(t)
        if rest:
            calendar = self.db.resolve_calendar(ref)
            cols = calendar.columns if calendar.order == 1 else None
            if cols is not None and cols.hi_sorted:
                from repro.core.columnar import batch_membership
                member.update(zip(rest, batch_membership(cols.los,
                                                         cols.his, rest)))
            else:
                for t in rest:
                    member[t] = calendar.contains_point(t)
        return member

    def _vector_join(self, edge, combos, idx_of, var: str, rows_by,
                     sel_by, full_by, relations, base_pair: bool,
                     env_base: dict, strategies):
        """Extend combos with ``var`` through one join edge."""
        if isinstance(edge, vector.EquiEdge):
            if edge.left_var == var:
                vcol, bvar, bcol = (edge.left_col, edge.right_var,
                                    edge.right_col)
            else:
                vcol, bvar, bcol = (edge.right_col, edge.left_var,
                                    edge.left_col)
            if base_pair and full_by[bvar] and full_by[var]:
                merged = self._merge_join(relations, bvar, bcol, var,
                                          vcol, rows_by)
                if merged is not None:
                    strategies.labels(vector.STRAT_MERGE).inc()
                    return merged
            strategies.labels(vector.STRAT_HASH).inc()
            return self._hash_join(edge.term, combos, idx_of[bvar], bvar,
                                   bcol, var, vcol, rows_by, sel_by,
                                   env_base)
        strategies.labels(vector.STRAT_SWEEP).inc()
        return self._sweep_join(edge, combos, idx_of, var, rows_by,
                                sel_by)

    def _merge_join(self, relations, bvar: str, bcol: str, var: str,
                    vcol: str, rows_by):
        """Sort-merge join fed directly from two OrderedIndex lanes.

        Eligible only when both sides are unfiltered full scans and
        their indexes cover every live row (a None-valued row is not
        indexed, yet ``None = None`` joins — partial coverage must fall
        back to the hash join).  Returns None when ineligible.
        """
        index_b = relations[bvar].indexes.get(bcol)
        index_v = relations[var].indexes.get(vcol)
        if not isinstance(index_b, OrderedIndex) or \
                not isinstance(index_v, OrderedIndex):
            return None
        rows_b, rows_v = rows_by[bvar], rows_by[var]
        if len(index_b) != len(rows_b) or len(index_v) != len(rows_v):
            return None
        pos_b = {row["_tid"]: i for i, row in enumerate(rows_b)}
        pos_v = {row["_tid"]: i for i, row in enumerate(rows_v)}
        keys_b, tids_b = index_b.items()
        keys_v, tids_v = index_v.items()
        nb, nv = len(keys_b), len(keys_v)
        out: list[tuple] = []
        i = j = 0
        try:
            while i < nb and j < nv:
                kb, kv = keys_b[i], keys_v[j]
                if kb < kv:
                    i += 1
                elif kv < kb:
                    j += 1
                else:
                    i2 = i + 1
                    while i2 < nb and keys_b[i2] == kb:
                        i2 += 1
                    j2 = j + 1
                    while j2 < nv and keys_v[j2] == kb:
                        j2 += 1
                    for a in range(i, i2):
                        pa = pos_b[tids_b[a]]
                        for b in range(j, j2):
                            out.append((pa, pos_v[tids_v[b]]))
                    i, j = i2, j2
        except TypeError:
            # Mixed-type key lanes do not totally order; the hash join
            # handles them with plain equality like the row engine.
            return None
        return out

    def _hash_join(self, term, combos, bidx: int, bvar: str, bcol: str,
                   var: str, vcol: str, rows_by, sel_by, env_base: dict):
        """Order-preserving hash join: build on the new variable's
        selection, probe per existing combo in order."""
        rows_v = rows_by[var]
        table: dict = {}
        try:
            for p in sel_by[var]:
                key = rows_v[p][vcol]
                try:
                    if key != key:  # NaN never equals, even itself
                        continue
                except Exception:
                    pass
                table.setdefault(key, []).append(p)
        except KeyError:
            raise ExecutionError(
                f"tuple variable {var!r} has no column {vcol!r}") \
                from None
        except TypeError:
            return self._pairwise_edge_join(term, combos, bidx, bvar,
                                            var, rows_by, sel_by,
                                            env_base)
        rows_b = rows_by[bvar]
        out: list[tuple] = []
        try:
            for c in combos:
                key = rows_b[c[bidx]][bcol]
                try:
                    if key != key:
                        continue
                except Exception:
                    pass
                matches = table.get(key)
                if matches:
                    out.extend(c + (p,) for p in matches)
        except KeyError:
            raise ExecutionError(
                f"tuple variable {bvar!r} has no column {bcol!r}") \
                from None
        except TypeError:
            return self._pairwise_edge_join(term, combos, bidx, bvar,
                                            var, rows_by, sel_by,
                                            env_base)
        return out

    def _pairwise_edge_join(self, term, combos, bidx: int, bvar: str,
                            var: str, rows_by, sel_by, env_base: dict):
        """Escape hatch for unhashable join keys: evaluate the conjunct
        per pair, exactly like the row engine."""
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

    def _vector_calendar_filter(self, stmt: Retrieve, combos, rows_by,
                                calendar_index):
        """One batched membership pass for the ``on <calendar>``
        clause: distinct valid-time ticks of the surviving first-
        variable positions, sorted, swept once through the interval
        lanes."""
        relation = self.db.relation(stmt.range_vars[0].relation)
        column = relation.schema.valid_time_column
        if column is None:
            raise ExecutionError(
                f"relation {relation.name!r} has no valid-time column "
                "for 'on <calendar>'")
        rows = rows_by[stmt.range_vars[0].var]
        positions = {c[0] for c in combos}
        ticks = sorted({rows[p][column] for p in positions
                        if rows[p][column] is not None})
        member = dict(zip(ticks, calendar_index.contains_batch(ticks)))
        keep = {p for p in positions
                if rows[p][column] is not None and
                member[rows[p][column]]}
        return [c for c in combos if c[0] in keep]

    def _vector_strategies(self, stmt: Retrieve, plan
                           ) -> list[tuple[object, str]]:
        """(term, strategy) pairs for EXPLAIN, mirroring the runtime
        fold: the first edge binding a new variable gets the join
        kernel (merge when both sides can feed from full index lanes),
        later edges between already-bound variables run as per-combo
        filters."""
        out: list[tuple[object, str]] = []
        for term in plan.const_terms:
            out.append((term, vector.STRAT_SEQUENTIAL))
        relations = {rv.var: self.db.relation(rv.relation)
                     for rv in stmt.range_vars}
        for var in plan.order:
            filters = plan.filters_of(var)
            for i, f in enumerate(filters):
                strategy = f.strategy
                if i == 0 and isinstance(f, vector.WithinFilter):
                    strategy = self._within_strategy(relations[var], var,
                                                     filters)
                out.append((f.term, strategy))
        edges_left = list(plan.edges)
        bound = {plan.order[0]}
        base_pair = True
        for var in plan.order[1:]:
            applicable = [e for e in edges_left
                          if var in e.vars() and
                          (set(e.vars()) - {var}) <= bound]
            for rank, edge in enumerate(applicable):
                if rank > 0:
                    strategy = vector.STRAT_SEQUENTIAL
                elif isinstance(edge, vector.EquiEdge):
                    strategy = (vector.STRAT_MERGE
                                if base_pair and
                                self._merge_static(stmt, plan, edge)
                                else vector.STRAT_HASH)
                else:
                    strategy = vector.STRAT_SWEEP
                out.append((edge.term, strategy))
                edges_left.remove(edge)
            bound.add(var)
            base_pair = False
        return out

    def _within_strategy(self, relation, var: str, filters) -> str:
        """EXPLAIN's label for a leading ``within`` filter: the range
        scan, or the batched sweep with the reason the scan declined."""
        if self._vector_probe(relation, var, filters, {}) is not None:
            reason = "equality probe chosen"
        else:
            try:
                _, reason = self._within_range(relation, filters)
            except ReproError as exc:
                reason = f"calendar does not resolve ({exc})"
        if reason is None:
            return vector.STRAT_RANGE
        return f"{vector.STRAT_CALENDAR} (range scan declined: {reason})"

    def _merge_static(self, stmt: Retrieve, plan, edge) -> bool:
        """Whether the runtime fold would pick the sort-merge join for
        this edge (both sides unfiltered with full index coverage)."""
        relations = {rv.var: self.db.relation(rv.relation)
                     for rv in stmt.range_vars}
        for v, col in ((edge.left_var, edge.left_col),
                       (edge.right_var, edge.right_col)):
            if plan.filters_of(v):
                return False
            index = relations[v].indexes.get(col)
            if not isinstance(index, OrderedIndex) or \
                    len(index) != len(relations[v]):
                return False
        return True

    # -- binding enumeration -------------------------------------------------------

    @classmethod
    def _conjuncts(cls, expr: QlExpr | None) -> list:
        """Top-level AND-ed terms of a predicate."""
        if expr is None:
            return []
        if isinstance(expr, BinOp) and expr.op == "and":
            return cls._conjuncts(expr.left) + cls._conjuncts(expr.right)
        return [expr]

    @classmethod
    def _referenced_vars(cls, expr: QlExpr, out: set) -> None:
        if isinstance(expr, ColumnRef):
            out.add(expr.var)
        elif isinstance(expr, BinOp):
            cls._referenced_vars(expr.left, out)
            cls._referenced_vars(expr.right, out)
        elif isinstance(expr, UnOp):
            cls._referenced_vars(expr.operand, out)
        elif isinstance(expr, FuncCall):
            for arg in expr.args:
                cls._referenced_vars(arg, out)

    def _bindings(self, range_vars, where: QlExpr | None,
                  extra: dict) -> Iterator[dict]:
        if not range_vars:
            yield dict(extra)
            return
        # Predicate pushdown: a conjunct is evaluated as soon as every
        # variable it references is bound, pruning the join early.
        conjuncts = []
        for term in self._conjuncts(where):
            refs: set = set()
            self._referenced_vars(term, refs)
            refs -= set(extra)
            level = 0
            remaining = set(refs)
            for i, rv in enumerate(range_vars):
                remaining.discard(rv.var)
                if not remaining:
                    level = i
                    break
            else:
                level = len(range_vars) - 1
            conjuncts.append((level, term))
        by_level: dict[int, list] = {}
        for level, term in conjuncts:
            by_level.setdefault(level, []).append(term)

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
        custom = self.db.operators.resolve(expr.op, _type_name(left),
                                           _type_name(right))
        if custom is not None:
            return custom(left, right)
        return self._builtin_binop(expr.op, left, right)

    def _builtin_binop(self, op: str, left, right):
        if op == "within":
            if not isinstance(left, int):
                raise ExecutionError(
                    "within expects an abstime tick on the left")
            # Compiled membership probe: O(log offsets) modular
            # arithmetic instead of materialising the calendar's cover
            # (falls back near the default-window boundary, where the
            # materialised calendar is clipped).
            probe = self.db.resolve_periodic(right)
            if probe is not None and probe[1] <= left <= probe[2]:
                return probe[0].contains(left)
            return self.db.resolve_calendar(right).contains_point(left)
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
