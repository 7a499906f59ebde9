"""Vectorized retrieve planning: the batch pipeline's one decision.

The executor's historical binding loop enumerates every range-variable
combination through a Python nested-loop ``recurse`` with per-tuple dict
plumbing.  :func:`plan_retrieve` classifies a ``retrieve`` statement's
predicate into batch-executable pieces and records, once, every choice
the batch pipeline makes; :class:`~repro.db.executor.Executor` runs that
record and ``explain`` prints it:

* **access** — how each range variable's candidates are read: an
  ``index probe on R.c`` when an equality filter compares an indexed
  column with a constant or bound parameter, a *valid-time range scan*
  (one bisect pair per calendar run over the column's
  :class:`~repro.db.index.OrderedIndex`) when the variable's first
  filter is ``<col> within "<calendar>"`` over an indexed ``abstime``
  column — or under ``on <calendar>`` for an unfiltered, unjoined
  variable — else a ``sequential scan``;
* **per-variable filters** — conjuncts referencing a single range
  variable, applied to that variable's candidate batch with a
  short-circuit selection vector; a ``within`` the range scan does not
  serve is a *batched calendar sweep* (one membership probe per
  distinct tick), with the reason the scan declined when it leads;
* **join edges** — equi-conjuncts ``a.x = b.y`` become hash joins, and
  ``overlaps(a.lo, a.hi, b.lo, b.hi)`` / ``during(...)`` conjuncts
  become Piatov-style endpoint sweeps
  (:func:`repro.core.columnar.interval_join_pairs`); the first edge
  folding a variable in picks the kernel, later ones filter the joined
  combos;
* **residue** — anything else on a single variable runs row-at-a-time
  over the surviving batch; a non-vectorizable *join-level* conjunct
  (e.g. ``a.k = b.k + 1``, or an ``or`` spanning two variables) rejects
  the whole plan so the statement takes the existing nested-loop path
  and its pushdown pruning.

Classification is syntactic over the QL AST plus three semantic
guards: an operator the user has overridden in the
:class:`~repro.db.types.OperatorRegistry` is never vectorized (the
batch kernels bake in the built-in semantics), ``overlaps`` /
``during`` only sweep when they still resolve to the database's own
builtin implementations, and the access paths read the relations'
current indexes (never their rows).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.ql.ast import (
    BinOp,
    ColumnRef,
    Const,
    FuncCall,
    Retrieve,
)

__all__ = [
    "plan_retrieve",
    "VectorPlan",
    "Access",
    "Kernel",
    "WithinFilter",
    "ScalarFilter",
    "EquiEdge",
    "IntervalEdge",
    "STRAT_HASH",
    "STRAT_SWEEP",
    "STRAT_CALENDAR",
    "STRAT_RANGE",
    "STRAT_SEQUENTIAL",
    "SEQUENTIAL_SCAN",
]

#: Strategy labels — shared by EXPLAIN output and the
#: ``db.join.strategy`` counter family.
STRAT_HASH = "hash join"
STRAT_SWEEP = "endpoint sweep"
STRAT_CALENDAR = "batched calendar sweep"
STRAT_RANGE = "valid-time range scan"
STRAT_SEQUENTIAL = "sequential fallback"

#: The access label of a variable read by a full scan.
SEQUENTIAL_SCAN = "sequential scan"

#: The two builtin interval-predicate functions the sweep understands.
SWEEP_FUNCTIONS = ("overlaps", "during")


@dataclass(frozen=True)
class WithinFilter:
    """``var.column within "<calendar>"`` — a calendar filter."""

    var: str
    column: str
    calendar_ref: str
    term: object


@dataclass(frozen=True)
class ScalarFilter:
    """A single-variable conjunct evaluated row-at-a-time over the
    candidate batch (the selection-vector residue)."""

    var: str
    term: object


@dataclass(frozen=True)
class EquiEdge:
    """``left_var.left_col = right_var.right_col`` — hash join."""

    left_var: str
    left_col: str
    right_var: str
    right_col: str
    term: object

    def vars(self) -> tuple[str, str]:
        """The two range variables this edge connects."""
        return (self.left_var, self.right_var)


@dataclass(frozen=True)
class IntervalEdge:
    """``op(a.lo, a.hi, b.lo, b.hi)`` — endpoint-sweep interval join.

    ``op`` is ``overlaps`` or ``during`` (left interval during right).
    """

    op: str
    left_var: str
    left_lo: str
    left_hi: str
    right_var: str
    right_lo: str
    right_hi: str
    term: object

    def vars(self) -> tuple[str, str]:
        """The two range variables this edge connects."""
        return (self.left_var, self.right_var)


@dataclass(frozen=True)
class Access:
    """How one range variable's candidate rows are read.

    ``kind`` is ``probe``, ``range`` or ``scan``; ``label`` is what
    ``explain`` prints.  A probe reads ``column``'s index for the value
    of ``value`` (an expression over constants and bound parameters); a
    range scan reads ``column``'s index for the runs of
    ``calendar_ref``, answering the ``served`` within filter (None
    under ``on <calendar>``).
    """

    kind: str
    label: str
    column: "str | None" = None
    value: object = None
    calendar_ref: "str | None" = None
    served: "WithinFilter | None" = None


SCAN = Access("scan", SEQUENTIAL_SCAN)


@dataclass(frozen=True)
class Kernel:
    """The batch kernel one conjunct (or the ``on`` clause) runs as,
    with the reason the range scan declined where it could have
    served."""

    term: object
    strategy: str
    declined: "str | None" = None

    def __str__(self) -> str:
        if self.declined is None:
            return self.strategy
        return f"{self.strategy} (range scan declined: {self.declined})"


@dataclass
class VectorPlan:
    """A classified retrieve predicate and every choice its batch
    execution makes."""

    #: Range-variable names in from-clause order.
    order: tuple[str, ...]
    #: Conjuncts referencing no range variable (parameter-only).
    const_terms: list = field(default_factory=list)
    #: var -> filters in original conjunct order.
    filters: dict = field(default_factory=dict)
    #: Join edges in original conjunct order.
    edges: list = field(default_factory=list)
    #: var -> :class:`Access`.
    access: dict = field(default_factory=dict)
    #: var -> the edges that fold it in (first one picks the kernel).
    joins: dict = field(default_factory=dict)
    #: Every conjunct's kernel: constants, filters by variable, edges
    #: in fold order.
    kernels: list = field(default_factory=list)
    #: The ``on <calendar>`` clause's kernel, if there is one.
    on: "Kernel | None" = None

    def filters_of(self, var: str) -> list:
        """One variable's filters, in original conjunct order."""
        return self.filters.get(var, [])

    def strategies(self) -> list[str]:
        """The strategy of every kernel one execution runs."""
        labels = [k.strategy for k in self.kernels]
        if self.on is not None:
            labels.append(self.on.strategy)
        return labels


def conjuncts(expr) -> list:
    """Top-level AND-ed terms of a predicate."""
    if expr is None:
        return []
    if isinstance(expr, BinOp) and expr.op == "and":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def referenced_vars(expr, out: set) -> None:
    """Add the names of the variables ``expr`` references to ``out``."""
    if isinstance(expr, ColumnRef):
        out.add(expr.var)
    elif isinstance(expr, BinOp):
        referenced_vars(expr.left, out)
        referenced_vars(expr.right, out)
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            referenced_vars(arg, out)
    elif hasattr(expr, "operand"):  # UnOp
        referenced_vars(expr.operand, out)


def _classify_pair(term, overridden_ops: set, db) -> "object | None":
    """An :class:`EquiEdge` / :class:`IntervalEdge` for a two-variable
    conjunct, or ``None`` when it cannot be joined vectorized."""
    if isinstance(term, BinOp) and term.op == "=" and \
            "=" not in overridden_ops:
        left, right = term.left, term.right
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef) \
                and left.column and right.column and left.var != right.var:
            return EquiEdge(left.var, left.column, right.var, right.column,
                            term)
    if isinstance(term, FuncCall) and term.name in SWEEP_FUNCTIONS:
        if db.functions.resolve(term.name) is not \
                db.builtin_interval_predicates.get(term.name):
            return None
        args = term.args
        if len(args) == 4 and all(
                isinstance(a, ColumnRef) and a.column for a in args):
            avar, bvar = args[0].var, args[2].var
            if args[1].var == avar and args[3].var == bvar and avar != bvar:
                return IntervalEdge(term.name, avar, args[0].column,
                                    args[1].column, bvar, args[2].column,
                                    args[3].column, term)
    return None


def _classify_single(term, var: str, overridden_ops: set) -> object:
    """The filter object for a one-variable conjunct."""
    if isinstance(term, BinOp) and term.op == "within" and \
            "within" not in overridden_ops:
        left, right = term.left, term.right
        if isinstance(left, ColumnRef) and left.var == var and \
                left.column and isinstance(right, Const) and \
                isinstance(right.value, str):
            return WithinFilter(var, left.column, right.value, term)
    return ScalarFilter(var, term)


def _range_decline(relation, column: str, cover: bool) -> "str | None":
    """Why the valid-time range scan cannot read ``column``, or None.

    ``cover`` demands an index entry for every live row: ``within``
    raises on a NULL tick in the row engine, so an index that skips
    NULLs would drop the error.
    """
    if column not in relation.schema or \
            relation.schema.column(column).type_name != "abstime":
        return f"{column} is not an abstime column"
    index = relation.indexes.get(column)
    if index is None:
        return f"no ordered index on {column}"
    if cover and len(index) != len(relation):
        return "NULL ticks leave the index short of the live rows"
    return None


def _probe_access(rv, relation, filters, extra_keys: set):
    """An index-probe :class:`Access` from the first equality filter
    comparing an indexed column with constants and bound parameters."""
    for f in filters:
        term = f.term
        if isinstance(f, WithinFilter) or \
                not (isinstance(term, BinOp) and term.op == "="):
            continue
        for colref, other in ((term.left, term.right),
                              (term.right, term.left)):
            if isinstance(colref, ColumnRef) and colref.var == rv.var \
                    and colref.column in relation.indexes:
                refs: set = set()
                referenced_vars(other, refs)
                if refs <= extra_keys:
                    return Access(
                        "probe", f"index probe on {rv.relation}."
                        f"{colref.column}", colref.column, value=other)
    return None


def _decide(plan: VectorPlan, stmt: Retrieve, db, extra_keys: set) -> None:
    """Record each variable's access, each conjunct's kernel and the
    join fold (the order the executor binds variables in)."""
    plan.kernels = [Kernel(term, STRAT_SEQUENTIAL)
                    for term in plan.const_terms]
    for rv in stmt.range_vars:
        relation = db.relation(rv.relation)
        filters = plan.filters_of(rv.var)
        access = _probe_access(rv, relation, filters, extra_keys) or SCAN
        lead = filters[0] if filters and \
            isinstance(filters[0], WithinFilter) else None
        declined = None
        if lead is not None:
            declined = "equality probe chosen" if access is not SCAN \
                else _range_decline(relation, lead.column, cover=True)
            if declined is None:
                access = Access("range", STRAT_RANGE, lead.column,
                                calendar_ref=lead.calendar_ref, served=lead)
        if stmt.on_calendar is not None and rv is stmt.range_vars[0]:
            column = relation.schema.valid_time_column
            if len(plan.order) > 1 or filters:
                on_declined = ("a filter or join reads the rows before "
                               "the calendar")
            elif column is None:
                on_declined = "no valid-time column"
            else:
                on_declined = _range_decline(relation, column, cover=False)
            if on_declined is None:
                access = Access("range", STRAT_RANGE, column,
                                calendar_ref=stmt.on_calendar)
            plan.on = Kernel(f"on {stmt.on_calendar!r}",
                             STRAT_CALENDAR if on_declined else STRAT_RANGE,
                             on_declined)
        plan.access[rv.var] = access
        for f in filters:
            if f is access.served:
                plan.kernels.append(Kernel(f.term, STRAT_RANGE))
            elif isinstance(f, WithinFilter):
                plan.kernels.append(Kernel(
                    f.term, STRAT_CALENDAR,
                    declined if f is lead else None))
            else:
                plan.kernels.append(Kernel(f.term, STRAT_SEQUENTIAL))
    edges_left = list(plan.edges)
    bound = {plan.order[0]}
    for var in plan.order[1:]:
        applicable = [e for e in edges_left
                      if var in e.vars() and set(e.vars()) - {var} <= bound]
        plan.joins[var] = applicable
        for rank, edge in enumerate(applicable):
            if rank:
                strategy = STRAT_SEQUENTIAL  # filters the joined combos
            elif isinstance(edge, EquiEdge):
                strategy = STRAT_HASH
            else:
                strategy = STRAT_SWEEP
            plan.kernels.append(Kernel(edge.term, strategy))
            edges_left.remove(edge)
        bound.add(var)


def plan_retrieve(stmt: Retrieve, db,
                  extra_keys: "set[str]"
                  ) -> tuple["VectorPlan | None", "str | None"]:
    """Classify a retrieve for batch execution and record its choices.

    Returns ``(plan, None)`` when every conjunct landed in a batch-
    executable bucket, or ``(None, reason)`` when the statement must
    take the row-at-a-time path.  ``extra_keys`` are externally bound
    parameter names (treated as constants, exactly like the binding
    loop's pushdown does).
    """
    if not stmt.range_vars:
        return None, "no range variables"
    for rv in stmt.range_vars:
        if rv.as_of is not None:
            return None, (f"as of historical scan on {rv.var} "
                          "forces the sequential path")
        if rv.relation not in db:
            return None, f"unknown relation {rv.relation!r}"
    names = [rv.var for rv in stmt.range_vars]
    if len(set(names)) != len(names):
        return None, "duplicate range variable"
    if set(names) & extra_keys:
        return None, "range variable shadows a bound parameter"
    known = set(names)
    overridden = set(db.operators.names())
    plan = VectorPlan(order=tuple(names))
    for term in conjuncts(stmt.where):
        refs: set = set()
        referenced_vars(term, refs)
        refs -= extra_keys
        if not refs <= known:
            unbound = sorted(refs - known)
            return None, f"unbound variable {unbound[0]!r}"
        if not refs:
            plan.const_terms.append(term)
            continue
        if len(refs) == 1:
            var = next(iter(refs))
            plan.filters.setdefault(var, []).append(
                _classify_single(term, var, overridden))
            continue
        if len(refs) == 2:
            edge = _classify_pair(term, overridden, db)
            if edge is not None:
                plan.edges.append(edge)
                continue
        return None, f"non-vectorizable join conjunct {term}"
    _decide(plan, stmt, db, extra_keys)
    return plan, None
