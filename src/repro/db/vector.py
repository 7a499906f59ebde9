"""Vectorized retrieve planning: the batch pipeline's front half.

The executor's historical binding loop enumerates every range-variable
combination through a Python nested-loop ``recurse`` with per-tuple dict
plumbing.  This module classifies a ``retrieve`` statement's predicate
into batch-executable pieces so :class:`~repro.db.executor.Executor` can
run it as a vectorized pipeline instead:

* **per-variable filters** — conjuncts referencing a single range
  variable, applied to that relation's candidate batch with a
  short-circuit selection vector; a variable whose first filter is
  ``<col> within "<calendar>"`` over an indexed ``abstime`` column takes
  its candidates from a *valid-time range scan* (one bisect pair per
  calendar run over the column's :class:`OrderedIndex`), and any other
  ``within`` conjunct becomes a *batched calendar probe* (sort the
  valid-time lane once, one merge pass over the calendar's endpoint
  lanes);
* **join edges** — equi-conjuncts ``a.x = b.y`` become hash joins (or
  sort-merge joins fed by both relations' :class:`OrderedIndex` lanes),
  and ``overlaps(a.lo, a.hi, b.lo, b.hi)`` / ``during(...)`` conjuncts
  become Piatov-style endpoint sweeps
  (:func:`repro.core.columnar.interval_join_pairs`);
* **residue** — anything else on a single variable runs row-at-a-time
  over the surviving batch; a non-vectorizable *join-level* conjunct
  (e.g. ``a.k = b.k + 1``, or an ``or`` spanning two variables) rejects
  the whole plan so the statement takes the existing nested-loop path
  and its pushdown pruning.

Classification is purely syntactic over the QL AST plus two semantic
guards: an operator the user has overridden in the
:class:`~repro.db.types.OperatorRegistry` is never vectorized (the
batch kernels bake in the built-in semantics), and ``overlaps`` /
``during`` only sweep when they still resolve to the database's own
builtin implementations.
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
    "WithinFilter",
    "ScalarFilter",
    "EquiEdge",
    "IntervalEdge",
    "STRAT_HASH",
    "STRAT_MERGE",
    "STRAT_SWEEP",
    "STRAT_CALENDAR",
    "STRAT_RANGE",
    "STRAT_SEQUENTIAL",
]

#: Strategy labels — shared by EXPLAIN output and the
#: ``db.join.strategy`` counter family.
STRAT_HASH = "hash join"
STRAT_MERGE = "merge join"
STRAT_SWEEP = "endpoint sweep"
STRAT_CALENDAR = "batched calendar sweep"
STRAT_RANGE = "valid-time range scan"
STRAT_SEQUENTIAL = "sequential fallback"

#: The two builtin interval-predicate functions the sweep understands.
SWEEP_FUNCTIONS = ("overlaps", "during")


@dataclass(frozen=True)
class WithinFilter:
    """``var.column within "<calendar>"`` — a batched calendar probe."""

    var: str
    column: str
    calendar_ref: str
    term: object

    strategy = STRAT_CALENDAR


@dataclass(frozen=True)
class ScalarFilter:
    """A single-variable conjunct evaluated row-at-a-time over the
    candidate batch (the selection-vector residue)."""

    var: str
    term: object

    strategy = STRAT_SEQUENTIAL


@dataclass(frozen=True)
class EquiEdge:
    """``left_var.left_col = right_var.right_col`` — hash / merge join."""

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

    strategy = STRAT_SWEEP

    def vars(self) -> tuple[str, str]:
        """The two range variables this edge connects."""
        return (self.left_var, self.right_var)


@dataclass
class VectorPlan:
    """A classified retrieve predicate, ready for batch execution."""

    #: Range-variable names in from-clause order.
    order: tuple[str, ...]
    #: Conjuncts referencing no range variable (parameter-only).
    const_terms: list = field(default_factory=list)
    #: var -> filters in original conjunct order.
    filters: dict = field(default_factory=dict)
    #: Join edges in original conjunct order.
    edges: list = field(default_factory=list)

    def filters_of(self, var: str) -> list:
        """One variable's filters, in original conjunct order."""
        return self.filters.get(var, [])


def _conjuncts(expr) -> list:
    if expr is None:
        return []
    if isinstance(expr, BinOp) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _referenced_vars(expr, out: set) -> None:
    if isinstance(expr, ColumnRef):
        out.add(expr.var)
    elif isinstance(expr, BinOp):
        _referenced_vars(expr.left, out)
        _referenced_vars(expr.right, out)
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            _referenced_vars(arg, out)
    elif hasattr(expr, "operand"):  # UnOp
        _referenced_vars(expr.operand, out)


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


def plan_retrieve(stmt: Retrieve, db,
                  extra_keys: "set[str]"
                  ) -> tuple["VectorPlan | None", "str | None"]:
    """Classify a retrieve for batch execution.

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
    names = [rv.var for rv in stmt.range_vars]
    if len(set(names)) != len(names):
        return None, "duplicate range variable"
    if set(names) & extra_keys:
        return None, "range variable shadows a bound parameter"
    known = set(names)
    overridden = set(db.operators.names())
    plan = VectorPlan(order=tuple(names))
    for term in _conjuncts(stmt.where):
        refs: set = set()
        _referenced_vars(term, refs)
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
    return plan, None
