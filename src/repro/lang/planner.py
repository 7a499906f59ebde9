"""Compiling calendar expressions into evaluation plans (section 3.4).

The planner consumes a (preferably factorized) expression AST and emits a
:class:`~repro.lang.plan.Plan`.  It implements the two optimisations the
paper's parsing algorithm calls for:

* **Window narrowing via selection look-ahead** — when a subtree is
  restricted by a label selection over YEARS (``1993/YEARS``), every basic
  calendar generated *inside* that subtree only needs values for that
  year's tick range.  For the non-overlapping listops (``<``, ``meets``)
  the left operand additionally needs history before the window, so its
  window is extended back to the context window's start (the paper notes
  the interval "may not be uniform for all nodes of the parse tree").
* **Shared-calendar caching** — a calendar "encountered more than once" is
  generated once: structurally identical subtrees with the same window are
  assigned the same register.

The planner is window-conservative: a narrowed window is only used where
provably sufficient, otherwise the context window applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.basis import CalendarSystem
from repro.core.granularity import Granularity, exact_ratio
from repro.lang import ast
from repro.lang.defs import BasicDef, DerivedDef, ExplicitDef, Resolver
from repro.lang.errors import PlanError
from repro.lang.factorizer import base_calendar_of
from repro.lang.plan import (
    CONTEXT_WINDOW,
    CalOperateStep,
    ForEachStep,
    FlattenStep,
    GenerateCallStep,
    HullStep,
    InstantsStep,
    ShiftStep,
    GenerateStep,
    IntervalStep,
    LabelSelectStep,
    LoadStep,
    Plan,
    PlanStep,
    PointStep,
    SelectStep,
    SetOpStep,
    TodayStep,
    WindowSpec,
)

__all__ = ["Planner", "compile_expression"]

#: Listops whose left operand relates to points *before* the right operand;
#: window narrowing must keep history for them.
_LOOKBACK_OPS = ("<", "meets", "<=")

#: Nominal span, in days, of one unit of each basic calendar; a narrowed
#: window is padded by the coarsest unit appearing in a subtree so that
#: units partially overlapping the window are generated whole (positional
#: selection inside a truncated week/month would otherwise be wrong).
_NOMINAL_DAYS = {
    Granularity.SECONDS: 1,
    Granularity.MINUTES: 1,
    Granularity.HOURS: 1,
    Granularity.DAYS: 1,
    Granularity.WEEKS: 7,
    Granularity.MONTHS: 31,
    Granularity.YEARS: 366,
    Granularity.DECADES: 3653,
    Granularity.CENTURY: 36525,
}

#: Unit granularities finer than a day: their generation windows get an
#: exact per-expression pad instead of the context's blanket (one month of
#: ticks), which over-pads day-coarse expressions ~30x and *under*-pads
#: year-coarse ones.
_SUBDAY_UNITS = (Granularity.SECONDS, Granularity.MINUTES, Granularity.HOURS)


def _skip_zero(t: int) -> int:
    return t if t != 0 else -1


@dataclass
class Planner:
    """Stateful single-expression plan compiler."""

    system: CalendarSystem
    resolver: Resolver
    unit: Granularity = Granularity.DAYS
    #: Static context window (unit ticks); used to bound look-back
    #: extension.  None leaves look-back windows symbolic (context).
    context_window: tuple[int, int] | None = None
    #: Active span tracer (or None): planner decisions — window
    #: narrowing, shared-register reuse — are recorded as point events.
    tracer: object | None = None

    _steps: list[PlanStep] = field(default_factory=list)
    _registers: dict = field(default_factory=dict)
    _counter: int = 0
    _gen_pad: int | None = None

    # -- public -------------------------------------------------------------

    def compile(self, expr: ast.Expr) -> Plan:
        """Compile an expression AST into an evaluation plan."""
        self._gen_pad = self._generation_pad(expr)
        result = self._compile(expr, self._root_window(expr))
        return Plan(self._steps, result)

    def _generation_pad(self, expr: ast.Expr) -> int | None:
        """Exact generation-window pad (unit ticks) for sub-day units.

        The evaluation context's blanket pad is one month of unit ticks —
        744 for HOURS — regardless of what the expression references.  For
        sub-day units the coarsest granularity in the expression bounds
        how far a boundary unit can reach, so the pad only needs that
        span in ticks (24 for a day-coarse hourly expression).  ``None``
        (DAYS and coarser units, or expressions referencing derived
        calendars whose granularity is unknown) keeps the legacy blanket.
        """
        if self.unit not in _SUBDAY_UNITS:
            return None
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and \
                    not isinstance(self.resolver(sub.ident), BasicDef):
                return None
        return _NOMINAL_DAYS[self._coarsest_in(expr)] * \
            exact_ratio(self.unit, Granularity.DAYS)

    # -- window analysis ------------------------------------------------------

    def _root_window(self, expr: ast.Expr) -> WindowSpec:
        intrinsic = self._intrinsic_window(expr)
        return intrinsic if intrinsic is not None else CONTEXT_WINDOW

    def _intrinsic_window(self, expr: ast.Expr) -> WindowSpec | None:
        """A window this subtree is provably confined to, if any."""
        if isinstance(expr, ast.LabelSelect):
            base = base_calendar_of(expr.child, self.resolver)
            if base == "YEARS" and isinstance(expr.label, int):
                return self._year_window(expr.label)
            return self._intrinsic_window(expr.child)
        if isinstance(expr, ast.Select):
            return self._intrinsic_window(expr.child)
        if isinstance(expr, ast.ForEach):
            # The result of a foreach is confined to (around) its right
            # operand's window for overlapping ops; look-back ops reach
            # earlier, so only the right operand's bound is usable when the
            # op keeps results inside the reference.
            if expr.op in _LOOKBACK_OPS:
                return None
            return self._intrinsic_window(expr.right)
        if isinstance(expr, ast.IntervalLit):
            return WindowSpec((expr.lo, expr.hi))
        return None

    def _year_window(self, year: int) -> WindowSpec | None:
        """Tick window of a civil year in the planner's unit, if exact.

        The year is also the window's anchor: the reference evaluation
        materialises YEARS over the context window padded by one year
        and keeps whole overlapping units, so a year disjoint from that
        padded window never exists there.  Plans are reused under other
        windows, so that check runs when the window resolves, not here.
        """
        if self.unit != Granularity.DAYS:
            # Day-based narrowing only; other units stay conservative.
            return None
        lo, hi = self.system.epoch.days_of_year(year)
        if self.tracer is not None:
            self.tracer.event("planner.narrow", year=year, lo=lo, hi=hi)
        return WindowSpec((lo, hi), anchor=(lo, hi))

    def _extend_back(self, window: WindowSpec) -> WindowSpec:
        """Extend a window's start back to the context window (look-back)."""
        if window.fixed is None:
            return window
        if self.context_window is None:
            return replace(window, fixed=None)
        return replace(window, fixed=(min(self.context_window[0],
                                          window.fixed[0]),
                                      window.fixed[1]))

    def _coarsest_in(self, expr: ast.Expr) -> Granularity:
        """Coarsest basic calendar referenced anywhere in ``expr``."""
        coarsest = Granularity.DAYS
        for sub in ast.walk(expr):
            gran: Granularity | None = None
            if isinstance(sub, ast.Name):
                definition = self.resolver(sub.ident)
                if isinstance(definition, BasicDef):
                    gran = definition.granularity
            elif isinstance(sub, ast.FunCall) and sub.name == "generate" \
                    and sub.args and isinstance(sub.args[0], ast.Name):
                try:
                    gran = Granularity.parse(sub.args[0].ident)
                except Exception:
                    gran = None
            if gran is not None and gran > coarsest:
                coarsest = gran
        return coarsest

    def _pad_window(self, window: WindowSpec, expr: ast.Expr) -> WindowSpec:
        """Pad a fixed window by one coarsest-unit span on each side."""
        if window.fixed is None:
            return window
        if self.unit == Granularity.DAYS:
            pad = _NOMINAL_DAYS[self._coarsest_in(expr)]
        elif self.unit in _SUBDAY_UNITS:
            pad = _NOMINAL_DAYS[self._coarsest_in(expr)] * \
                exact_ratio(self.unit, Granularity.DAYS)
        else:
            return window
        if pad <= 1:
            return window
        lo, hi = window.fixed
        padded = (_skip_zero(lo - pad), _skip_zero(hi + pad))
        if self.context_window is not None:
            padded = (max(padded[0], self.context_window[0]),
                      min(padded[1], self.context_window[1]))
            if padded[0] > padded[1]:
                return window
        return replace(window, fixed=padded)

    # -- compilation -------------------------------------------------------------

    def _fresh(self, prefix: str = "t") -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _emit(self, key, make_step) -> str:
        """Emit a step unless an identical one already has a register."""
        if key in self._registers:
            if self.tracer is not None:
                self.tracer.event("planner.shared_register",
                                  register=self._registers[key],
                                  kind=key[0])
            return self._registers[key]
        target = self._fresh()
        self._steps.append(make_step(target))
        self._registers[key] = target
        return target

    def _compile(self, expr: ast.Expr, window: WindowSpec) -> str:
        if isinstance(expr, ast.Name):
            return self._compile_name(expr, window)
        if isinstance(expr, ast.ForEach):
            return self._compile_foreach(expr, window)
        if isinstance(expr, ast.Select):
            source = self._compile(expr.child, window)
            key = ("select", str(expr.predicate), source)
            return self._emit(key, lambda t: SelectStep(t, expr.predicate,
                                                        source))
        if isinstance(expr, ast.LabelSelect):
            child_window = self._intrinsic_window(expr) or window
            source = self._compile(expr.child, child_window)
            key = ("label", expr.label, source)
            return self._emit(key, lambda t: LabelSelectStep(t, expr.label,
                                                             source))
        if isinstance(expr, ast.SetOp):
            left = self._compile(expr.left, window)
            right = self._compile(expr.right, window)
            key = ("setop", expr.op, left, right)
            return self._emit(key, lambda t: SetOpStep(t, expr.op, left,
                                                       right))
        if isinstance(expr, ast.IntervalLit):
            key = ("interval", expr.lo, expr.hi)
            return self._emit(key, lambda t: IntervalStep(t, expr.lo,
                                                          expr.hi))
        if isinstance(expr, ast.Today):
            return self._emit(("today",), lambda t: TodayStep(t))
        if isinstance(expr, ast.FunCall):
            return self._compile_funcall(expr, window)
        raise PlanError(f"cannot compile expression {expr}")

    def _compile_name(self, expr: ast.Name, window: WindowSpec) -> str:
        definition = self.resolver(expr.ident)
        if definition is None:
            raise PlanError(f"unknown calendar {expr.ident!r}")
        if isinstance(definition, BasicDef):
            key = ("generate", definition.granularity, window)
            return self._emit(key, lambda t: GenerateStep(
                t, definition.granularity, window, self._gen_pad))
        key = ("load", expr.ident.lower())
        return self._emit(key, lambda t: LoadStep(t, expr.ident))

    def _compile_foreach(self, expr: ast.ForEach, window: WindowSpec) -> str:
        right_window = self._intrinsic_window(expr.right) or window
        left_window = self._pad_window(right_window, expr.left)
        if expr.op in _LOOKBACK_OPS:
            left_window = self._extend_back(right_window)
        right = self._compile(expr.right, right_window)
        left = self._compile(expr.left, left_window)
        key = ("foreach", expr.op, expr.strict, left, right)
        return self._emit(key, lambda t: ForEachStep(t, expr.op, expr.strict,
                                                     left, right))

    def _compile_funcall(self, expr: ast.FunCall, window: WindowSpec) -> str:
        if expr.name == "generate":
            args = expr.args
            if len(args) not in (4, 5):
                raise PlanError("generate() takes 4 or 5 arguments")
            cal = self._text_arg(args[0])
            unit = self._text_arg(args[1])
            start = self._value_arg(args[2])
            end = self._value_arg(args[3])
            mode = self._text_arg(args[4]) if len(args) == 5 else "clip"
            key = ("generate-call", cal, unit, start, end, mode)
            return self._emit(key, lambda t: GenerateCallStep(
                t, cal, unit, start, end, mode))
        if expr.name == "caloperate":
            if len(expr.args) < 3:
                raise PlanError("caloperate() takes at least 3 arguments")
            source = self._compile(expr.args[0], window)
            end_arg = expr.args[1]
            if end_arg == "*":
                end: int | None = None
            elif isinstance(end_arg, ast.NumberLit):
                end = end_arg.value
            elif isinstance(end_arg, ast.StringLit):
                end = self.system.day_of(end_arg.value)
            else:
                raise PlanError("bad caloperate end argument")
            counts = []
            for arg in expr.args[2:]:
                if not isinstance(arg, ast.NumberLit):
                    raise PlanError("caloperate counts must be integers")
                counts.append(arg.value)
            key = ("caloperate", source, tuple(counts), end)
            return self._emit(key, lambda t: CalOperateStep(
                t, source, tuple(counts), end))
        if expr.name == "flatten":
            if len(expr.args) != 1 or not isinstance(expr.args[0], ast.Expr):
                raise PlanError("flatten() takes one calendar argument")
            source = self._compile(expr.args[0], window)
            return self._emit(("flatten", source),
                              lambda t: FlattenStep(t, source))
        if expr.name == "shift":
            if len(expr.args) != 2 or not isinstance(expr.args[0],
                                                     ast.Expr) or \
                    not isinstance(expr.args[1], ast.NumberLit):
                raise PlanError(
                    "shift(calendar, n) takes a calendar and an integer")
            # A shifted result can stray outside a narrowed window by the
            # delta; widen the child window accordingly.
            child_window = window
            if window.fixed is not None:
                delta = expr.args[1].value
                lo, hi = window.fixed
                lo, hi = lo - abs(delta), hi + abs(delta)
                child_window = replace(window, fixed=(_skip_zero(lo),
                                                      _skip_zero(hi)))
            source = self._compile(expr.args[0], child_window)
            delta = expr.args[1].value
            return self._emit(("shift", source, delta),
                              lambda t: ShiftStep(t, source, delta))
        if expr.name == "instants":
            if len(expr.args) != 1 or not isinstance(expr.args[0],
                                                     ast.Expr):
                raise PlanError("instants() takes one calendar argument")
            source = self._compile(expr.args[0], window)
            return self._emit(("instants", source),
                              lambda t: InstantsStep(t, source))
        if expr.name == "hull":
            if len(expr.args) != 1 or not isinstance(expr.args[0],
                                                     ast.Expr):
                raise PlanError("hull() takes one calendar argument")
            source = self._compile(expr.args[0], window)
            return self._emit(("hull", source),
                              lambda t: HullStep(t, source))
        if expr.name in ("point", "date"):
            if len(expr.args) != 1 or not isinstance(expr.args[0],
                                                     ast.StringLit):
                raise PlanError('point("date string") takes one string')
            text = expr.args[0].value
            key = ("point", text)
            return self._emit(key, lambda t: PointStep(t, text))
        raise PlanError(f"cannot compile call to {expr.name!r}")

    @staticmethod
    def _text_arg(arg) -> str:
        if isinstance(arg, ast.Name):
            return arg.ident
        if isinstance(arg, ast.StringLit):
            return arg.value
        raise PlanError(f"expected a name or string argument, got {arg}")

    @staticmethod
    def _value_arg(arg):
        if isinstance(arg, ast.StringLit):
            return arg.value
        if isinstance(arg, ast.NumberLit):
            return arg.value
        raise PlanError("generate window bounds must be strings or numbers")


def compile_expression(expr: ast.Expr, system: CalendarSystem,
                       resolver: Resolver,
                       unit: Granularity = Granularity.DAYS,
                       context_window: tuple[int, int] | None = None,
                       matcache=None, memo_key=None,
                       tracer=None) -> Plan:
    """Compile ``expr`` into an evaluation plan.

    When a :class:`~repro.core.matcache.MaterialisationCache` and a
    ``memo_key`` are given, the compiled plan is memoised under
    ``("plan", memo_key, unit, context_window)`` — plans are
    deterministic in the expression, the resolver state the key must
    encode (the registry embeds its version), and these parameters, so
    repeated evaluations skip the compile entirely.  A raised
    :class:`~repro.lang.errors.PlanError` is memoised too, sparing
    repeated doomed compiles of uncompilable expressions.
    """
    if matcache is not None and memo_key is not None:
        full_key = ("plan", memo_key, unit, context_window)
        cached = matcache.memo_get(full_key)
        if isinstance(cached, Plan):
            if tracer is not None:
                tracer.event("planner.plan_cached", steps=len(cached.steps))
            return cached
        if isinstance(cached, PlanError):
            raise cached
    planner = Planner(system=system, resolver=resolver, unit=unit,
                      context_window=context_window, tracer=tracer)
    try:
        plan = planner.compile(expr)
    except PlanError as exc:
        if matcache is not None and memo_key is not None:
            matcache.memo_put(full_key, exc)
        raise
    if matcache is not None and memo_key is not None:
        matcache.memo_put(full_key, plan)
    return plan
