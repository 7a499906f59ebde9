"""Direct AST interpreter for calendar scripts.

This is the reference semantics of the calendar expression language: the
planner's compiled evaluation plans (:mod:`repro.lang.planner`) are
differential-tested against it.

Evaluation happens inside an :class:`EvalContext` that fixes the calendar
system, the *generation window* (the time interval within which basic
calendars are materialised — section 3.4's evaluation-plan input), the base
time unit, the name resolver, and the distinguished ``today`` instant used
by ``while`` rules.

A right operand that is a *singleton* order-1 calendar is treated as an
interval by ``foreach`` (the paper writes "Let Jan-1993 be the interval
{(1,31)}": named singleton calendars play the role of intervals, giving
order-1 results), while multi-element right operands yield order-2 results.
"""

from __future__ import annotations

import bisect

from dataclasses import dataclass, field
from typing import Callable

from repro.core.algebra import caloperate, foreach, label_select, select
from repro.core.basis import CalendarSystem
from repro.core.calendar import Calendar
from repro.core.matcache import MaterialisationCache, get_default_cache
from repro.core.errors import CalendarError
from repro.core.granularity import Granularity
from repro.core.interval import Interval
from repro.lang import ast
from repro.lang.defs import BasicDef, DerivedDef, ExplicitDef, Resolver
from repro.lang.errors import (
    EvaluationError,
    LoopLimitError,
    NameResolutionError,
)

__all__ = ["EvalContext", "Interpreter", "infer_unit", "ScriptResult"]

#: Result of running a script: a calendar, an alert string, or nothing.
ScriptResult = "Calendar | str | None"


def infer_unit(node: ast.Node, resolver: Resolver) -> Granularity:
    """The smallest time unit needed to express every calendar in ``node``.

    Implements the parser step of section 3.4 ("determine the smallest time
    unit in the expression").  Defaults to DAYS when nothing finer appears.
    """
    finest = Granularity.DAYS
    for sub in ast.walk(node):
        name: str | None = None
        if isinstance(sub, ast.Name):
            name = sub.ident
        elif isinstance(sub, ast.FunCall) and sub.name == "generate" and \
                sub.args and isinstance(sub.args[0], ast.Name):
            name = sub.args[0].ident
        if name is None:
            continue
        definition = resolver(name)
        gran: Granularity | None = None
        if isinstance(definition, BasicDef):
            gran = definition.granularity
        elif isinstance(definition, (DerivedDef, ExplicitDef)):
            gran = definition.granularity
        if gran is not None and gran < finest:
            finest = gran
    return finest


@dataclass
class EvalContext:
    """Everything an evaluation needs besides the AST itself."""

    system: CalendarSystem
    resolver: Resolver
    #: Generation window in ticks of ``unit`` (inclusive).
    window: tuple[int, int]
    unit: Granularity = Granularity.DAYS
    today: int | None = None
    env: dict[str, Calendar] = field(default_factory=dict)
    #: Extension functions callable from scripts: name -> f(ctx, args).
    functions: dict[str, Callable] = field(default_factory=dict)
    #: Called once per while-loop iteration; must return True to continue
    #: (e.g. advance ``today``).  None leaves loop progress to the body.
    while_hook: Callable[["EvalContext"], bool] | None = None
    max_loop_iterations: int = 100_000
    #: Cache of materialised basic calendars and derived-name results.
    cache: dict = field(default_factory=dict)
    #: Process-wide materialisation cache backing :meth:`materialise_basic`
    #: and explicit ``generate()`` calls; None uses the default instance.
    matcache: "MaterialisationCache | None" = None
    #: Statistics: how many basic-calendar materialisations were requested /
    #: served from cache, and total intervals produced (benchmark metrics).
    stats: dict = field(default_factory=lambda: {
        "generate_calls": 0, "generate_cache_hits": 0,
        "intervals_generated": 0})
    #: Active span tracer, or None when tracing is disabled — hot paths
    #: guard every span with a single ``if tracer is not None`` branch.
    tracer: object | None = None
    #: Metrics registry for step timings (only written when tracing).
    metrics: object | None = None

    def spawn_env(self) -> "EvalContext":
        """A child context with a fresh variable environment (shared cache)."""
        return EvalContext(
            system=self.system, resolver=self.resolver, window=self.window,
            unit=self.unit, today=self.today, env={},
            functions=self.functions, while_hook=self.while_hook,
            max_loop_iterations=self.max_loop_iterations, cache=self.cache,
            matcache=self.matcache, stats=self.stats,
            tracer=self.tracer, metrics=self.metrics)

    # -- materialisation -------------------------------------------------------

    #: Window padding (ticks) per evaluation unit: basic calendars are
    #: generated over an extended window so that coarse units partially
    #: overlapping the window boundary are complete in the finer calendars
    #: too — positional selection inside a truncated boundary week would
    #: otherwise pick the wrong day.  Day-or-coarser units pad by a year
    #: (completing everything up to YEARS); sub-day units pad by a month
    #: (completing weeks/months — for year-aligned sub-day expressions,
    #: evaluate with a correspondingly wider window).  DECADES/CENTURY
    #: boundary units are never completed.
    _WINDOW_PAD = {
        Granularity.SECONDS: 31 * 86_400,
        Granularity.MINUTES: 31 * 1_440,
        Granularity.HOURS: 31 * 24,
        Granularity.DAYS: 366,
        Granularity.WEEKS: 53,
        Granularity.MONTHS: 12,
        Granularity.YEARS: 1,
        Granularity.DECADES: 1,
        Granularity.CENTURY: 1,
    }

    def padded_tick_window(self, window: tuple[int, int],
                           pad: int | None = None) -> tuple[int, int]:
        """``window`` extended by ``pad`` unit ticks.

        ``pad=None`` applies the legacy blanket (one year of the unit);
        an explicit pad — the planner's per-expression bound for sub-day
        units, or ``0`` for pre-padded dynamic pipeline windows — extends
        by exactly that many ticks.
        """
        lo, hi = window
        if pad is None:
            pad = self._WINDOW_PAD[self.unit]
        lo -= pad
        hi += pad
        return (lo if lo != 0 else -1, hi if hi != 0 else 1)

    def _materialisation_cache(self) -> MaterialisationCache:
        return self.matcache if self.matcache is not None \
            else get_default_cache()

    def materialise_basic(self, gran: Granularity,
                          window: tuple[int, int] | None = None,
                          mode: str = "cover",
                          pad: int | None = None) -> Calendar:
        """Materialise a basic calendar over a (padded) window.

        ``pad`` overrides the blanket window padding in unit ticks (see
        :meth:`padded_tick_window`); the default ``None`` keeps the
        legacy one-year blanket.

        Requests go through the process-wide
        :class:`~repro.core.matcache.MaterialisationCache` (window
        subsumption across evaluations); the per-context ``cache`` dict
        keeps exact-key repeats free and the per-context stats counting
        identical to a cache-cold run.
        """
        win = self.padded_tick_window(window or self.window, pad)
        key = ("basic", gran, self.unit, win, mode)
        self.stats["generate_calls"] += 1
        if key in self.cache:
            self.stats["generate_cache_hits"] += 1
            return self.cache[key]
        cal = self._materialisation_cache().generate(
            self.system, gran, self.unit, win, mode=mode)
        self.stats["intervals_generated"] += len(cal)
        self.cache[key] = cal
        return cal

    def generate_call(self, cal: "str | Granularity",
                      unit: "str | Granularity", window: tuple,
                      mode: str = "clip") -> Calendar:
        """An explicit ``generate(cal, unit, start, end, mode)`` call,
        served through the shared materialisation cache."""
        return self._materialisation_cache().generate(
            self.system, cal, unit, window, mode=mode)


class _ReturnSignal(Exception):
    def __init__(self, value) -> None:
        self.value = value


def clip_to_window(cal: Calendar, window: tuple[int, int]) -> Calendar:
    """Keep only elements overlapping ``window`` (recursively for order>1).

    Basic calendars are materialised over a *padded* window so that
    boundary units are complete; the final result of an evaluation is
    clipped back to the elements relevant to the window actually asked
    for.  Whole elements are kept (the paper's WEEKS calendar of 1993
    includes the week ``(-4,3)`` reaching into 1992), never truncated.
    """
    lo, hi = window
    win = Interval(lo if lo != 0 else -1, hi if hi != 0 else 1)
    if cal.order == 1:
        cols = cal.columns
        # Sorted lanes clip with two bisects and a zero-copy slice;
        # unsorted lanes gather the overlapping positions.
        if cols.hi_sorted:
            start = bisect.bisect_left(cols.his, win.lo)
            end = bisect.bisect_right(cols.los, win.hi)
            if end < start:
                end = start
            out = cols.slice(start, end)
            labels = (cal.labels[start:end]
                      if cal.labels is not None else None)
        else:
            los, his = cols.los, cols.his
            pos = [i for i in range(len(cols))
                   if los[i] <= win.hi and win.lo <= his[i]]
            out = cols.take(pos)
            labels = (tuple(cal.labels[i] for i in pos)
                      if cal.labels is not None else None)
        return Calendar._from_columns(out, cal.granularity, labels)
    if cal.group_lanes is not None:
        return cal.groups_overlapping(win.lo, win.hi)
    subs: list[Calendar] = []
    labels_out: list = []
    for i, sub in enumerate(cal.elements):
        span = sub.span()
        if span is not None and span.overlaps(win):
            subs.append(sub)
            labels_out.append(cal.label_of(i))
    out = Calendar.from_calendars(subs, cal.granularity) if subs else \
        Calendar((), cal.order, cal.granularity)
    if cal.labels is not None and subs:
        out = out.with_labels(labels_out)
    return out


class Interpreter:
    """Evaluates calendar expressions and scripts against an EvalContext."""

    def __init__(self, context: EvalContext) -> None:
        self.context = context

    # -- public API --------------------------------------------------------------

    def evaluate(self, node: ast.Expr):
        """Evaluate an expression to a Calendar (or string literal).

        The result is clipped to the context window (see
        :func:`clip_to_window`); use :meth:`evaluate_raw` to keep
        padded-boundary elements.
        """
        tracer = self.context.tracer
        if tracer is not None:
            with tracer.span("interp.evaluate",
                             node=type(node).__name__):
                return self._finish(self._eval(node))
        return self._finish(self._eval(node))

    def evaluate_raw(self, node: ast.Expr):
        """Evaluate without the final window clip."""
        return self._eval(node)

    def execute(self, script: ast.Script):
        """Run a script; the value of its ``return`` (or None), clipped."""
        try:
            self._exec_body(script.body)
        except _ReturnSignal as signal:
            return self._finish(signal.value)
        return None

    def execute_raw(self, script: ast.Script):
        """Run a script without the final window clip.

        Used for *internal* evaluation of derived calendar definitions:
        a derived calendar referenced inside a larger expression must
        cover the same padded window as the basic calendars it is
        combined with, otherwise look-back operators could map
        padded-boundary artifacts back into the window.
        """
        try:
            self._exec_body(script.body)
        except _ReturnSignal as signal:
            return signal.value
        return None

    def _finish(self, value):
        if isinstance(value, Calendar):
            return clip_to_window(value, self.context.window)
        return value

    # -- statements ----------------------------------------------------------------

    def _exec_body(self, body) -> None:
        tracer = self.context.tracer
        if tracer is None:
            for stmt in body:
                self._exec(stmt)
            return
        for stmt in body:
            with tracer.span(f"interp.stmt.{type(stmt).__name__}"):
                self._exec(stmt)

    def _exec(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self.context.env[stmt.name.lower()] = self._eval(stmt.expr)
        elif isinstance(stmt, ast.Return):
            raise _ReturnSignal(self._eval(stmt.expr))
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr)
        elif isinstance(stmt, ast.If):
            if self._truthy(self._eval(stmt.condition)):
                self._exec_body(stmt.then_body)
            else:
                self._exec_body(stmt.else_body)
        elif isinstance(stmt, ast.While):
            self._exec_while(stmt)
        else:
            raise EvaluationError(f"unknown statement {stmt!r}")

    def _exec_while(self, stmt: ast.While) -> None:
        iterations = 0
        while self._truthy(self._eval(stmt.condition)):
            iterations += 1
            if iterations > self.context.max_loop_iterations:
                raise LoopLimitError(
                    f"while loop exceeded "
                    f"{self.context.max_loop_iterations} iterations")
            self._exec_body(stmt.body)
            if self.context.while_hook is not None:
                if not self.context.while_hook(self.context):
                    break

    @staticmethod
    def _truthy(value) -> bool:
        if value is None:
            return False
        if isinstance(value, Calendar):
            return not value.is_empty()
        if isinstance(value, str):
            return bool(value)
        return bool(value)

    # -- expressions ------------------------------------------------------------------

    def _eval(self, node: ast.Expr):
        method = self._DISPATCH.get(type(node))
        if method is None:
            raise EvaluationError(f"cannot evaluate {node!r}")
        return method(self, node)

    def _eval_name(self, node: ast.Name) -> Calendar:
        key = node.ident.lower()
        if key in self.context.env:
            return self.context.env[key]
        definition = self.context.resolver(node.ident)
        if definition is None:
            raise NameResolutionError(f"unknown calendar {node.ident!r}")
        return self._eval_definition(node.ident, definition)

    def _eval_definition(self, name: str, definition) -> Calendar:
        if isinstance(definition, BasicDef):
            return self.context.materialise_basic(definition.granularity)
        if isinstance(definition, ExplicitDef):
            return definition.values
        if isinstance(definition, DerivedDef):
            cache_key = ("derived", name.lower(), self.context.window,
                         self.context.unit)
            if cache_key in self.context.cache:
                return self.context.cache[cache_key]
            child = self.context.spawn_env()
            result = Interpreter(child).execute_raw(definition.script)
            if not isinstance(result, Calendar):
                raise EvaluationError(
                    f"derivation script of {name!r} did not return a calendar")
            if definition.granularity is not None:
                result = result.with_granularity(definition.granularity)
            self.context.cache[cache_key] = result
            return result
        raise EvaluationError(f"unknown definition kind for {name!r}")

    def _eval_today(self, node: ast.Today) -> Calendar:
        if self.context.today is None:
            raise EvaluationError("'today' is not bound in this context")
        return Calendar.point(self.context.today, self.context.unit)

    def _eval_interval_lit(self, node: ast.IntervalLit) -> Calendar:
        return Calendar.interval(node.lo, node.hi, self.context.unit)

    def _eval_string(self, node: ast.StringLit) -> str:
        return node.value

    def _eval_number(self, node: ast.NumberLit):
        raise EvaluationError(
            f"bare number {node.value} is not a calendar expression "
            "(numbers are only valid as function arguments or labels)")

    def _eval_foreach(self, node: ast.ForEach) -> Calendar:
        left = self._require_calendar(self._eval(node.left), node.left)
        right = self._require_calendar(self._eval(node.right), node.right)
        if left.order != 1:
            left = left.flatten()
        reference: "Calendar | Interval"
        if right.order == 1 and len(right) == 1:
            reference = right[0]
        else:
            reference = right
        return foreach(node.op, left, reference, strict=node.strict)

    def _eval_select(self, node: ast.Select) -> Calendar:
        child = self._require_calendar(self._eval(node.child), node.child)
        return select(child, node.predicate)

    def _eval_label_select(self, node: ast.LabelSelect) -> Calendar:
        child = self._require_calendar(self._eval(node.child), node.child)
        return label_select(child, node.label)

    def _eval_setop(self, node: ast.SetOp) -> Calendar:
        left = self._require_calendar(self._eval(node.left), node.left)
        right = self._require_calendar(self._eval(node.right), node.right)
        if left.order != 1 or right.order != 1:
            raise EvaluationError(
                f"set operator {node.op!r} requires order-1 operands")
        if node.op == "+":
            return left.union(right)
        if node.op == "-":
            return left.difference(right)
        if node.op == "&":
            return left.intersection(right)
        raise EvaluationError(f"unknown set operator {node.op!r}")

    def _eval_funcall(self, node: ast.FunCall):
        if node.name == "generate":
            return self._call_generate(node)
        if node.name == "caloperate":
            return self._call_caloperate(node)
        if node.name in ("point", "date"):
            return self._call_point(node)
        if node.name == "flatten":
            if len(node.args) != 1 or not isinstance(node.args[0], ast.Expr):
                raise EvaluationError("flatten() takes one calendar argument")
            value = self._require_calendar(self._eval(node.args[0]),
                                           node.args[0])
            return value.flatten()
        if node.name == "shift":
            return self._call_shift(node)
        if node.name == "instants":
            if len(node.args) != 1 or not isinstance(node.args[0],
                                                     ast.Expr):
                raise EvaluationError(
                    "instants() takes one calendar argument")
            value = self._require_calendar(self._eval(node.args[0]),
                                           node.args[0])
            points = sorted({t for iv in value.iter_intervals()
                             for t in iv})
            return Calendar.from_intervals([(t, t) for t in points],
                                           value.granularity)
        if node.name == "hull":
            if len(node.args) != 1 or not isinstance(node.args[0],
                                                     ast.Expr):
                raise EvaluationError("hull() takes one calendar argument")
            value = self._require_calendar(self._eval(node.args[0]),
                                           node.args[0])
            span = value.span()
            if span is None:
                return Calendar.from_intervals([], value.granularity)
            return Calendar.from_intervals([span], value.granularity)
        custom = self.context.functions.get(node.name)
        if custom is not None:
            args = [self._eval(a) if isinstance(a, ast.Expr) else a
                    for a in node.args]
            return custom(self.context, args)
        raise EvaluationError(f"unknown function {node.name!r}")

    def _call_generate(self, node: ast.FunCall) -> Calendar:
        args = list(node.args)
        if len(args) not in (4, 5):
            raise EvaluationError(
                "generate(cal, unit, start, end[, mode]) takes 4 or 5 "
                f"arguments, got {len(args)}")
        cal_name = self._name_arg(args[0], "generate calendar")
        unit_name = self._name_arg(args[1], "generate unit")
        start = self._window_arg(args[2])
        end = self._window_arg(args[3])
        mode = "clip"
        if len(args) == 5:
            if not isinstance(args[4], ast.StringLit):
                raise EvaluationError("generate mode must be a string")
            mode = args[4].value
        return self.context.generate_call(cal_name, unit_name,
                                          (start, end), mode=mode)

    def _call_caloperate(self, node: ast.FunCall) -> Calendar:
        args = list(node.args)
        if len(args) < 3:
            raise EvaluationError(
                "caloperate(cal, end, count...) takes at least 3 arguments")
        source = self._require_calendar(self._eval(args[0]), args[0])
        if source.order != 1:
            source = source.flatten()
        end_arg = args[1]
        if end_arg == "*":
            end: int | None = None
        elif isinstance(end_arg, ast.NumberLit):
            end = end_arg.value
        elif isinstance(end_arg, ast.StringLit):
            end = self.context.system.day_of(end_arg.value)
        else:
            raise EvaluationError(
                "caloperate end must be *, a tick number, or a date string")
        counts: list[int] = []
        for arg in args[2:]:
            if not isinstance(arg, ast.NumberLit):
                raise EvaluationError("caloperate counts must be integers")
            counts.append(arg.value)
        return caloperate(source, tuple(counts), end)

    def _call_shift(self, node: ast.FunCall) -> Calendar:
        """shift(expr, n): translate every interval by n unit ticks."""
        if len(node.args) != 2 or not isinstance(node.args[0], ast.Expr) \
                or not isinstance(node.args[1], ast.NumberLit):
            raise EvaluationError(
                "shift(calendar, n) takes a calendar and an integer")
        value = self._require_calendar(self._eval(node.args[0]),
                                       node.args[0])
        delta = node.args[1].value
        if value.order != 1:
            value = value.flatten()
        return value.shifted(delta)

    def _call_point(self, node: ast.FunCall) -> Calendar:
        if len(node.args) != 1 or not isinstance(node.args[0], ast.StringLit):
            raise EvaluationError('point("date string") takes one string')
        if self.context.unit != Granularity.DAYS:
            raise EvaluationError(
                "point() literals require a DAYS evaluation unit")
        day = self.context.system.day_of(node.args[0].value)
        return Calendar.point(day, Granularity.DAYS)

    @staticmethod
    def _name_arg(arg, what: str) -> str:
        if isinstance(arg, ast.Name):
            return arg.ident
        if isinstance(arg, ast.StringLit):
            return arg.value
        raise EvaluationError(f"{what} must be a calendar name")

    def _window_arg(self, arg):
        if isinstance(arg, ast.StringLit):
            return arg.value
        if isinstance(arg, ast.NumberLit):
            return arg.value
        raise EvaluationError(
            "generate window bounds must be date strings or tick numbers")

    def _require_calendar(self, value, node) -> Calendar:
        if not isinstance(value, Calendar):
            raise EvaluationError(
                f"expected a calendar from {node}, got {type(value).__name__}")
        return value

    _DISPATCH = {
        ast.Name: _eval_name,
        ast.Today: _eval_today,
        ast.IntervalLit: _eval_interval_lit,
        ast.StringLit: _eval_string,
        ast.NumberLit: _eval_number,
        ast.ForEach: _eval_foreach,
        ast.Select: _eval_select,
        ast.LabelSelect: _eval_label_select,
        ast.SetOp: _eval_setop,
        ast.FunCall: _eval_funcall,
    }
