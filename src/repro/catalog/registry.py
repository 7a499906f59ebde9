"""The calendar registry: define, store, optimise and evaluate calendars.

This is the user-facing façade tying sections 3.2-3.4 together: a
:class:`CalendarRegistry` owns the CALENDARS table, parses derivation
scripts, infers granularities, pre-compiles evaluation plans (factorized,
window-narrowed) for single-expression derivations, and evaluates calendar
names or ad-hoc expressions over a generation window.

It also provides :meth:`next_occurrence`, the primitive DBCRON uses to
find the next time point at which a temporal rule must trigger: the
calendar is evaluated over growing look-ahead windows until a point after
"now" is found.
"""

from __future__ import annotations

import itertools
import math
from contextlib import nullcontext

from repro.core.arithmetic import next_point
from repro.core.basis import CalendarSystem
from repro.core.matcache import MaterialisationCache, get_default_cache
from repro.core.periodic import compile_expression_periodic
from repro.core.calendar import Calendar
from repro.core.chrono import CivilDate
from repro.core.errors import CalendarError, LifespanError
from repro.core.granularity import Granularity
from repro.lang import ast
from repro.lang.defs import (
    BasicDef,
    Definition,
    DerivedDef,
    ExplicitDef,
    basic_resolver,
)
from repro.lang.errors import EvaluationError, ParseError, PlanError
from repro.lang.factorizer import factorize, granularity_of
from repro.lang.interpreter import EvalContext, Interpreter
from repro.lang.parser import parse_expression, parse_script
from repro.lang.optimizer import OptimizationResult, optimize_plan
from repro.lang.plan import Plan, PlanVM
from repro.lang.planner import compile_expression
from repro.errors import ReproError
from repro.obs.instrument import Instrumentation, get_default_instrumentation
from repro.catalog.results import ResultMemo
from repro.catalog.table import (
    UNBOUNDED_LIFESPAN,
    CalendarRecord,
    CalendarsTable,
)

__all__ = ["CalendarRegistry"]

#: Process-wide source of unique registry identities for shared-cache
#: memo keys (id() can be recycled after garbage collection; this can't).
_MEMO_TOKENS = itertools.count(1)

#: How far ahead (days, about ten years) the windowed ``next_occurrence``
#: search looks for an expression the periodic compiler declines.
WINDOWED_HORIZON_DAYS = 3700


_UNTRACED = nullcontext()


def _span(tracer, name: str, **meta):
    """``tracer.span(name, **meta)``, or a no-op without a tracer."""
    return _UNTRACED if tracer is None else tracer.span(name, **meta)


def _recording(fn, calls: list):
    """``fn`` that also appends to ``calls`` each time it runs."""
    def call(context, args):
        calls.append(fn)
        return fn(context, args)
    return call


class CalendarRegistry:
    """Named calendars over one :class:`CalendarSystem`.

    ``default_horizon_years`` bounds the default generation window: from
    the epoch year to epoch year + horizon.  Individual evaluations may
    pass an explicit window (day ticks or ``(date, date)``).
    """

    def __init__(self, system: CalendarSystem | None = None,
                 default_horizon_years: int = 40,
                 matcache: MaterialisationCache | None = None,
                 instrumentation: Instrumentation | None = None,
                 optimize: bool = True,
                 periodic: bool = True) -> None:
        self.system = system or CalendarSystem()
        #: Plan-optimizer gate (CSE / fusion / selection push-down).
        #: Off only in the optimizer's parity tests, as their oracle.
        self.optimize = bool(optimize)
        #: Periodic-set compilation gate (O(1) membership /
        #: next-occurrence without materialisation).  Off only in the
        #: periodic parity tests, as their oracle.
        self.periodic = bool(periodic)
        #: Metrics + tracing attachment point; defaults to the
        #: process-wide instrumentation (tracing off unless REPRO_TRACE).
        self.instrumentation = instrumentation if instrumentation \
            is not None else get_default_instrumentation()
        #: Shared materialisation cache; defaults to the process-wide one.
        #: An explicitly instrumented registry gets a private cache bound
        #: to its metrics (the shared default cache reports to the
        #: default instrumentation, which would hide this registry's
        #: cache traffic from its own metrics).
        if matcache is not None:
            self.matcache = matcache
        elif instrumentation is not None:
            self.matcache = MaterialisationCache(
                metrics=instrumentation.metrics)
        else:
            self.matcache = get_default_cache()
        self.table = CalendarsTable()
        epoch_year = self.system.epoch.date.year
        lo, _ = self.system.epoch.days_of_year(epoch_year)
        _, hi = self.system.epoch.days_of_year(
            epoch_year + default_horizon_years - 1)
        self.default_window: tuple[int, int] = (lo, hi)
        #: Extension functions exposed to scripts (name -> f(ctx, args)).
        self.functions: dict = {}
        #: Parameterised calendar procedures
        #: (name -> (params, Script, the callable in :attr:`functions`)).
        self._procedures: dict[str, tuple] = {}
        #: Bumped on every define/drop; every memoised evaluation keys on
        #: it, so stale results for redefined calendars are never served.
        self.version = 0
        #: Unique per-instance token; memo keys in the shared cache embed
        #: it so two registries with equal versions never collide.
        self.memo_token = next(_MEMO_TOKENS)
        #: ``(version, memo)`` of closed-form name values; see
        #: :meth:`_closed_memo`.
        self._closed_values: tuple[int, dict] = (-1, {})
        #: Finished evaluation results (the CALENDARS ``values`` column
        #: for any window); see :meth:`_memoised`.
        self._results = ResultMemo()
        self._result_counters: "tuple | None" = None
        self._compile_counters: "tuple | None" = None
        self._compile_handles()
        self._result_handles()

    # -- definition --------------------------------------------------------------

    def define(self, name: str, script: str | None = None,
               values: "Calendar | list | None" = None,
               granularity: "Granularity | str | None" = None,
               lifespan: tuple[float, float] | None = None,
               replace: bool = False, compile_plan: bool = True
               ) -> CalendarRecord:
        """Define a calendar from a derivation script or explicit values.

        Exactly one of ``script`` / ``values`` must be given.  Granularity
        is inferred from the script when omitted (section 3.2).  For
        single-expression scripts an optimised evaluation plan is compiled
        and stored in the record (the Figure 1 ``eval-plan`` column).
        """
        if (script is None) == (values is None):
            raise CalendarError(
                "define() needs exactly one of script= or values=")
        gran = Granularity.parse(granularity) if granularity else None
        cal: Calendar | None = None
        if values is not None:
            cal = values if isinstance(values, Calendar) \
                else Calendar.from_intervals(values, gran)
            if gran is not None:
                cal = cal.with_granularity(gran)
        record = CalendarRecord(
            name=name,
            derivation_script=script,
            lifespan=lifespan or UNBOUNDED_LIFESPAN,
            granularity=gran,
            values=cal,
        )
        if values is None:
            parsed = parse_script(script)
            record.parsed_script = parsed
            if record.granularity is None:
                record.granularity = self._infer_granularity(parsed)
            if compile_plan and parsed.is_single_expression():
                record.eval_plan = self._compile_record_plan(parsed)
        self.table.insert(record, replace=replace)
        self.version += 1
        return record

    def drop(self, name: str) -> None:
        """Remove a calendar from the catalog."""
        self.table.drop(name)
        self.version += 1

    def record(self, name: str) -> CalendarRecord:
        """The catalog record of a defined calendar (raises if unknown)."""
        record = self.table.get(name)
        if record is None:
            raise CalendarError(f"unknown calendar {name!r}")
        return record

    def names(self) -> list[str]:
        """Sorted names of all defined calendars."""
        return self.table.names()

    def __contains__(self, name: str) -> bool:
        return name in self.table

    def _infer_granularity(self, parsed: ast.Script) -> Granularity | None:
        temporaries = self._script_temporaries(parsed)
        for stmt in self._iter_returns(parsed.body):
            gran = granularity_of(
                factorize(stmt.expr, self.resolver,
                          temporaries=temporaries).expression,
                self.resolver)
            if gran is not None:
                return gran
        return None

    @staticmethod
    def _script_temporaries(parsed: ast.Script) -> dict[str, ast.Expr]:
        temporaries: dict[str, ast.Expr] = {}
        for stmt in parsed.body:
            if isinstance(stmt, ast.Assign):
                temporaries[stmt.name.lower()] = stmt.expr
        return temporaries

    @classmethod
    def _iter_returns(cls, body):
        for stmt in body:
            if isinstance(stmt, ast.Return):
                yield stmt
            elif isinstance(stmt, ast.If):
                yield from cls._iter_returns(stmt.then_body)
                yield from cls._iter_returns(stmt.else_body)
            elif isinstance(stmt, ast.While):
                yield from cls._iter_returns(stmt.body)

    def _compile_record_plan(self, parsed: ast.Script) -> Plan | None:
        expr = parsed.single_expression()
        factored = factorize(expr, self.resolver).expression
        try:
            plan = compile_expression(factored, self.system, self.resolver,
                                      context_window=self.default_window)
        except PlanError:
            return None
        if self.optimize:
            # Record plans are reused under arbitrary evaluation windows:
            # reusable=True keeps CSE structural and the runtime pipeline
            # windows resolve against the actual context at execution.
            plan = optimize_plan(
                plan, context_window=self.default_window,
                reusable=True, metrics=self.instrumentation.metrics).plan
        return plan

    # -- procedures ----------------------------------------------------------------

    def define_procedure(self, name: str, params: "list[str]",
                         script: str, replace: bool = False) -> None:
        """Define a parameterised calendar procedure.

        A procedure is a calendar script whose free names ``params`` are
        bound to evaluated argument calendars at call time, e.g.::

            registry.define_procedure(
                "expiration", ["Expiration-Month"], EXPIRATION_SCRIPT)
            registry.eval_expression(
                "expiration([11]/MONTHS:during:1993/YEARS)")

        This turns the paper's section 3.3 scripts — which reference a
        "predefined calendar" Expiration-Month — into reusable functions.
        """
        key = name.lower()
        if key in self._procedures and not replace:
            raise CalendarError(f"procedure {name!r} is already defined")
        if key in self.table or key in ("generate", "caloperate", "point",
                                        "date", "flatten", "interval",
                                        "pattern"):
            raise CalendarError(
                f"procedure name {name!r} collides with an existing "
                "calendar or builtin function")
        parsed = parse_script(script)
        parameters = tuple(p.lower() for p in params)
        call = self._make_procedure(name, parameters, parsed)
        self._procedures[key] = (parameters, parsed, call)
        self.functions[key] = call
        self.version += 1

    def procedures(self) -> list[str]:
        """Sorted names of all defined procedures."""
        return sorted(self._procedures)

    def drop_procedure(self, name: str) -> None:
        """Remove a procedure (raises if unknown)."""
        key = name.lower()
        if key not in self._procedures:
            raise CalendarError(f"unknown procedure {name!r}")
        del self._procedures[key]
        del self.functions[key]
        self.version += 1

    def _make_procedure(self, name: str, params: tuple, parsed):
        def call(context, args):
            if len(args) != len(params):
                raise EvaluationError(
                    f"procedure {name!r} takes {len(params)} argument(s), "
                    f"got {len(args)}")
            child = context.spawn_env()
            for param, value in zip(params, args):
                if not isinstance(value, Calendar):
                    raise EvaluationError(
                        f"procedure {name!r} arguments must be calendars")
                child.env[param] = value
            result = Interpreter(child).execute_raw(parsed)
            if not isinstance(result, Calendar):
                raise EvaluationError(
                    f"procedure {name!r} did not return a calendar")
            return result
        return call

    # -- resolution ----------------------------------------------------------------

    def resolver(self, name: str) -> Definition | None:
        """Resolve a name: catalog first, then the basic calendars."""
        record = self.table.get(name)
        if record is not None:
            lifespan = record.lifespan
            if record.is_explicit:
                return ExplicitDef(record.values, record.granularity,
                                   lifespan)
            return DerivedDef(record.parsed_script, record.granularity,
                              lifespan)
        return basic_resolver(name)

    # -- evaluation ----------------------------------------------------------------

    def context(self, window=None, today=None,
                unit: Granularity = Granularity.DAYS) -> EvalContext:
        """Build an evaluation context (window in unit ticks or dates)."""
        win = self._coerce_window(window)
        tracer = self.instrumentation.tracer
        return EvalContext(system=self.system, resolver=self.resolver,
                           window=win, unit=unit,
                           today=self._coerce_tick(today),
                           functions=dict(self.functions),
                           matcache=self.matcache,
                           tracer=tracer,
                           metrics=self.instrumentation.metrics)

    def _coerce_window(self, window) -> tuple[int, int]:
        """Normalise every accepted ``window=`` form to day ticks.

        This is the single coercion path for all evaluation entry points;
        accepted forms are ``None`` (the registry default window), a
        ``(start, end)`` pair of day ticks / date strings / CivilDates,
        or a single ``"start .. end"`` string.
        """
        if window is None:
            return self.default_window
        if isinstance(window, str):
            if ".." not in window:
                raise CalendarError(
                    f"cannot interpret {window!r} as a window; use "
                    f"'start .. end' or a (start, end) pair")
            lo, hi = (part.strip() for part in window.split("..", 1))
            return self.system.day_window(lo, hi)
        try:
            lo, hi = window
        except (TypeError, ValueError):
            raise CalendarError(
                f"cannot interpret {window!r} as a window; expected a "
                f"(start, end) pair")
        return self.system.day_window(lo, hi)

    def _coerce_tick(self, value) -> int | None:
        """Normalise a ``today=``-style value to a day tick (or None)."""
        if value is None or isinstance(value, int):
            return value
        return self.system.day_of(value)

    def evaluate(self, name: str, *, window=None, today=None,
                 use_plan: bool = True, memo: bool = True):
        """Evaluate a defined calendar over a window.

        Uses the stored evaluation plan when available (and ``use_plan``);
        multi-statement scripts run through the interpreter.  The result is
        clipped to the calendar's lifespan when one was declared.
        ``window``/``today`` accept every form
        :meth:`_coerce_window`/:meth:`_coerce_tick` understand.  With
        ``use_plan`` a repeated evaluation is served from the result
        memo (:meth:`_memoised`); ``memo=False`` computes it without
        touching the memo (``Session.profile``), and ``use_plan=False``
        always runs the reference interpreter.
        """
        record = self.record(name)
        try:
            return self._memoised(
                "registry.evaluate", "calendar", name, window, today,
                use_plan and memo, lambda ctx: self._evaluate_record(
                    record, ctx, use_plan))
        except ReproError as exc:
            raise exc.add_context(calendar=name,
                                  script=record.derivation_script)

    def _evaluate_record(self, record: CalendarRecord, ctx: EvalContext,
                         use_plan: bool):
        """Evaluate one catalog record in a prepared context."""
        if record.is_explicit:
            result: "Calendar | str" = record.values
        elif use_plan and record.eval_plan is not None:
            result = PlanVM(ctx).run(record.eval_plan)
        else:
            result = Interpreter(ctx).execute(record.parsed_script)
        if isinstance(result, Calendar):
            result = self._clip_lifespan(result, record)
            if record.granularity is not None:
                result = result.with_granularity(record.granularity)
        return result

    def eval_expression(self, text: str, *, window=None, today=None,
                        optimize: bool = True, memo: bool = True):
        """Parse, (optionally) factorize+plan, and evaluate an expression.

        See :meth:`_coerce_window` for accepted window forms;
        ``optimize=False`` runs the reference interpreter.  An optimised
        evaluation goes through the result memo unless ``memo=False``.
        """
        try:
            return self._memoised(
                "registry.eval_expression", "text", text, window, today,
                optimize and memo, lambda ctx: self._eval_expression(
                    text, ctx, optimize), optimize=optimize)
        except ReproError as exc:
            raise exc.add_context(script=text)

    def _memoised(self, span: str, kind: str, text: str, window, today,
                  memoise: bool, run, **attrs):
        """``run(ctx)`` in a fresh context, through the result memo.

        The memo key is ``(kind, text, window, today, version)`` with the
        window and ``today`` coerced to day ticks.  A hit returns the
        stored object itself; a successful run is stored unless it
        called a custom :attr:`functions` entry or holds more intervals
        than the memo's whole budget.  Errors propagate and are never
        stored.  ``memoise=False`` (a reference path, or a profile) and a
        disabled cache memo (``memo_maxsize == 0``) bypass the memo
        entirely.  With tracing on, the call is one ``span`` carrying
        ``attrs`` (plus ``memo="hit"`` when the memo served it); the
        coercion and lookup run in its ``registry.context`` child and a
        store in its last child, ``registry.memo``.  A text that does not
        parse is no lookup outcome: its ``ParseError`` counts nothing.
        """
        tracer = self.instrumentation.tracer
        attrs[kind] = text
        with _span(tracer, span, **attrs) as opened:
            with _span(tracer, "registry.context"):
                win = self._coerce_window(window)
                tick = self._coerce_tick(today)
                key = None
                if memoise and self.matcache.memo_maxsize:
                    version = self.version
                    key = (kind, text, win, tick, version)
                    hit = self._results.get(key)
                    if hit is not ResultMemo.MISSING:
                        self._count_result("hit")
                        if opened is not None:
                            opened.meta["memo"] = "hit"
                        return hit
                ctx = self.context(win, today=tick)
                calls = self._watch_custom_calls(ctx) if key else None
            try:
                result = run(ctx)
            except Exception as exc:
                if key is not None and not isinstance(exc, ParseError):
                    self._count_result("skip")
                raise
            if key is not None:
                with _span(tracer, "registry.memo"):
                    stored = not calls and self._results.put(
                        key, result, version)
                    self._count_result("miss" if stored else "skip")
        return result

    def _watch_custom_calls(self, ctx: EvalContext) -> list:
        """Wrap ``ctx``'s custom functions (every :attr:`functions` entry
        but a procedure's own callable) so that each call appends to the
        returned list: a function added without a version bump may read
        anything, so a result that called one is not memoised."""
        calls: list = []
        functions = ctx.functions
        for name, fn in functions.items():
            procedure = self._procedures.get(name)
            if procedure is None or procedure[2] is not fn:
                functions[name] = _recording(fn, calls)
        return calls

    def _result_handles(self) -> "tuple | None":
        """``(metrics, {outcome: counter})`` of the result-memo counter
        family, bound once per metrics registry like
        :meth:`_compile_handles`."""
        metrics = self.instrumentation.metrics
        if metrics is None:
            return None
        handles = self._result_counters
        if handles is None or handles[0] is not metrics:
            family = metrics.counter(
                "registry.result_memo", "Result-memo lookups by outcome",
                labels=("outcome",))
            handles = self._result_counters = (
                metrics, {outcome: family.labels(outcome)
                          for outcome in ("hit", "miss", "skip")})
        return handles

    def _count_result(self, outcome: str) -> None:
        """Count one result-memo ``hit``/``miss``/``skip``."""
        handles = self._result_handles()
        if handles is not None:
            handles[1][outcome].inc()

    def _eval_expression(self, text: str, ctx: EvalContext,
                         optimize: bool):
        """Factorize/plan/run an expression in a prepared context."""
        tracer = ctx.tracer
        if optimize:
            factored = self._factorized_ast(text, tracer)
            try:
                if tracer is None:
                    plan = self._compiled_plan(text, factored, ctx)
                    if self.optimize:
                        plan = self._optimization(text, plan, ctx).plan
                else:
                    with tracer.span("planner.compile"):
                        plan = self._compiled_plan(text, factored, ctx)
                    if self.optimize:
                        with tracer.span("optimizer.run") as span:
                            optimized = self._optimization(text, plan, ctx)
                            span.meta["rewrites"] = optimized.rewrites
                        plan = optimized.plan
                result = PlanVM(ctx).run(plan)
            except PlanError:
                return Interpreter(ctx).evaluate(factored)
            self._warm_periodic(text, ctx)
            return result
        if tracer is None:
            return Interpreter(ctx).evaluate(parse_expression(text))
        with tracer.span("lang.parse", text=text):
            parsed = parse_expression(text)
        return Interpreter(ctx).evaluate(parsed)

    def _factorized_ast(self, text: str, tracer) -> ast.Expr:
        """The memoised factorized AST of an expression text."""
        return self._parsed_asts(text, tracer)[1]

    def _parsed_asts(self, text: str, tracer) -> tuple:
        """The memoised ``(parsed, factorized)`` ASTs of an expression
        text: the interpreter (and the closed form) read the first, the
        planner and the periodic classifier the second."""
        key = ("ast", text, self.memo_token, self.version)
        asts = self.matcache.memo_get(key)
        if asts is None:
            if tracer is None:
                parsed = parse_expression(text)
                factored = factorize(parsed, self.resolver).expression
            else:
                with tracer.span("lang.parse", text=text):
                    parsed = parse_expression(text)
                with tracer.span("lang.factorize"):
                    result = factorize(parsed, self.resolver)
                for rewrite in result.rewrites:
                    tracer.event("factorizer.rewrite", rule=rewrite)
                factored = result.expression
            asts = (parsed, factored)
            self.matcache.memo_put(key, asts)
        return asts

    def _compiled_plan(self, text: str, factored: ast.Expr,
                       ctx: EvalContext) -> Plan:
        """The (memoised) evaluation plan of a factorized expression."""
        return compile_expression(factored, self.system, self.resolver,
                                  context_window=ctx.window,
                                  matcache=self.matcache,
                                  memo_key=(text, self.memo_token,
                                            self.version),
                                  tracer=ctx.tracer)

    def _optimization(self, text: str, plan: Plan,
                      ctx: EvalContext) -> OptimizationResult:
        """The (memoised) optimisation of a compiled expression plan."""
        pset = None
        if self.periodic and ctx.unit is Granularity.DAYS:
            # Memo-peek only: compilation runs *after* a successful
            # eager evaluation (see _warm_periodic), so the plan chosen
            # here always matches what ``explain`` reports and the
            # first evaluation never pays the oracle up front.
            pset = self.periodic_set(text, peek=True)
        key = ("optplan", text, self.memo_token, self.version, ctx.unit,
               ctx.window, pset is not None)
        cached = self.matcache.memo_get(key)
        if isinstance(cached, OptimizationResult):
            return cached
        optimized = optimize_plan(
            plan, context_window=ctx.window, unit=ctx.unit, periodic=pset,
            metrics=self.instrumentation.metrics)
        self.matcache.memo_put(key, optimized)
        return optimized

    def _warm_periodic(self, text: str, ctx: EvalContext) -> None:
        """Compile the periodic form behind a finished evaluation.

        Runs on the small budget tier (an ad-hoc evaluation never pays
        a 400-year oracle interpretation), memoised including the
        fallback outcome, so each expression compiles at most once per
        catalog version and every *later* evaluation — and ``explain``
        — can pick the periodic backend from the memo.
        """
        if self.periodic and ctx.unit is Granularity.DAYS:
            self.periodic_set(text, full=False)

    def eval_script(self, text: str, *, window=None, today=None,
                    env: dict | None = None, while_hook=None,
                    memo: bool = True):
        """Parse and run a full calendar script; returns its result.

        See :meth:`_coerce_window` for accepted window forms.  Without
        ``env`` bindings or a ``while_hook`` a repeated evaluation is
        served from the result memo (:meth:`_memoised`); with either, or
        with ``memo=False``, the script always runs and nothing is stored.
        """
        try:
            return self._memoised(
                "registry.eval_script", "script", text, window, today,
                memo and not env and while_hook is None,
                lambda ctx: self._eval_script(text, ctx, env, while_hook))
        except ReproError as exc:
            raise exc.add_context(script=text)

    @staticmethod
    def _eval_script(text: str, ctx: EvalContext, env: dict | None,
                     while_hook):
        """Parse and run a script in a prepared context, with ``env``
        bound and ``while_hook`` installed."""
        if env:
            ctx.env.update({k.lower(): v for k, v in env.items()})
        ctx.while_hook = while_hook
        tracer = ctx.tracer
        if tracer is None:
            return Interpreter(ctx).execute(parse_script(text))
        with tracer.span("lang.parse"):
            parsed = parse_script(text)
        return Interpreter(ctx).execute(parsed)

    def _clip_lifespan(self, cal: Calendar, record: CalendarRecord
                       ) -> Calendar:
        lo, hi = record.lifespan
        if (lo, hi) == UNBOUNDED_LIFESPAN or cal.order != 1:
            return cal
        window = self._lifespan_day_window(record)
        if window is None:
            return cal
        return cal.intersection(
            Calendar.interval(window[0], window[1], cal.granularity))

    def _lifespan_day_window(self, record: CalendarRecord
                             ) -> tuple[int, int] | None:
        lo, hi = record.lifespan
        epoch = self.system.epoch
        day_lo = (self.default_window[0] if lo == -math.inf
                  else epoch.day_number(CivilDate(int(lo), 1, 1)))
        day_hi = (self.default_window[1] if hi == math.inf
                  else epoch.day_number(CivilDate(int(hi), 12, 31)))
        if day_lo > day_hi:
            raise LifespanError(
                f"calendar {record.name!r} lifespan is empty on the day axis")
        return day_lo, day_hi

    # -- periodic compilation ------------------------------------------------------

    #: Oracle-evaluation budgets (in days) for periodic compilation.
    #: The full tier admits the 146 097-day Gregorian master period
    #: (scheduling and DB probe paths, where the one-time cost amortises
    #: over every later O(offsets) probe); the small tier only admits
    #: cheap anchors (weekly patterns, year-anchored finite sets) so the
    #: per-expression optimizer path never stalls on a 400-year
    #: interpretation.
    _PERIODIC_FULL_DAYS = 220_000
    _PERIODIC_SMALL_DAYS = 25_000

    def periodic_set(self, name_or_expr: str, *, full: bool = True,
                     peek: bool = False):
        """The compiled :class:`~repro.core.periodic.PeriodicSet` of a
        calendar name or expression — or ``None`` (fallback).

        Results (including fallbacks) are memoised in the shared cache
        keyed like the plan memo (text + registry token + version), one
        entry per budget tier; a full-tier hit also serves small-tier
        requests.  Returns ``None`` whenever the registry's ``periodic``
        gate is off, the name has a clipped lifespan, or the expression
        cannot be proven eventually periodic within the tier's oracle
        budget.

        With ``peek=True`` only the memo tiers are consulted and no
        compilation happens — the side-effect-free form ``explain``
        uses (compilation evaluates the expression as its oracle, which
        materialises intervals).
        """
        if not self.periodic:
            return None
        text = name_or_expr
        full_key = ("periodic", text, "full", self.memo_token,
                    self.version)
        cached = self.matcache.memo_get(full_key)
        if cached is not None:
            return cached[0]
        if not full or peek:
            small_key = ("periodic", text, "small", self.memo_token,
                         self.version)
            cached = self.matcache.memo_get(small_key)
            if cached is not None:
                return cached[0]
            if peek:
                return None
            pset = self._compile_periodic(text, self._PERIODIC_SMALL_DAYS)
            self.matcache.memo_put(small_key, (pset,))
            return pset
        pset = self._compile_periodic(text, self._PERIODIC_FULL_DAYS)
        self.matcache.memo_put(full_key, (pset,))
        return pset

    def install_periodic(self, sets) -> None:
        """Serve stored full-tier compiles: ``sets`` is ``(text, set)``
        pairs, ``set`` a :class:`~repro.core.periodic.PeriodicSet` or
        ``None`` for a decline, as :meth:`periodic_set` computed them.

        Each goes into the memo under the key :meth:`periodic_set`
        reads at the current catalog version, so a later catalog write
        retires it like a compiled one.  Counted as
        ``periodic.compile{path="stored"}`` and, like a compile, in
        ``periodic.compiled``/``periodic.fallback``.  A no-op when the
        ``periodic`` gate or the memo is off.
        """
        if not self.periodic or not self.matcache.memo_maxsize:
            return
        handles = self._compile_handles()
        for text, pset in sets:
            self.matcache.memo_put(("periodic", text, "full",
                                    self.memo_token, self.version), (pset,))
            if handles is not None:
                _, compiled, fallback, by_path = handles
                by_path["stored"].inc()
                (compiled if pset is not None else fallback).inc()

    def _compile_periodic(self, text: str, max_eval_days: int):
        """Uncached periodic compilation, traced as ``periodic.compile``
        (the closed-form attempt nests a ``periodic.closed`` span in it,
        and an oracle compile's interpreter evaluations follow that).
        The span's meta records the compile ``path`` and
        ``oracle_node``, and the compiled set's ``form`` or the decline
        ``reason``."""
        tracer = self.instrumentation.tracer
        if tracer is None:
            return self._compile_periodic_untraced(text, max_eval_days)
        with tracer.span("periodic.compile", source=text) as span:
            return self._compile_periodic_untraced(text, max_eval_days,
                                                   span.meta)

    def _closed_memo(self) -> dict:
        """Closed-form values of calendar names at the current catalog
        version (a redefinition can change any name they read)."""
        version, memo = self._closed_values
        if version != self.version:
            memo = {}
            self._closed_values = (self.version, memo)
        return memo

    def _compile_handles(self) -> "tuple | None":
        """``(metrics, compiled, fallback, {path: counter})``: the compile
        counters, bound once per metrics registry (rebound when the
        instrumentation bundle is swapped)."""
        metrics = self.instrumentation.metrics
        if metrics is None:
            return None
        handles = self._compile_counters
        if handles is None or handles[0] is not metrics:
            family = metrics.counter(
                "periodic.compile", "Periodic compiles by the path that "
                "read the expression (stored: installed from a saved "
                "database)", labels=("path",))
            handles = self._compile_counters = (
                metrics, metrics.counter("periodic.compiled"),
                metrics.counter("periodic.fallback"),
                {path: family.labels(path)
                 for path in ("closed", "oracle", "stored")})
        return handles

    def _compile_periodic_untraced(self, text: str, max_eval_days: int,
                                   meta: dict | None = None):
        """Periodic compilation + compiled/fallback/path counters; with
        ``meta`` (the traced span's), also what the compile did."""
        tracer = self.instrumentation.tracer
        reasons: list[str] = []
        paths: list[tuple] = []
        pset = None
        record = self.table.get(text)
        if record is not None and record.lifespan != UNBOUNDED_LIFESPAN:
            # evaluate() clips such names to their lifespan; the inline
            # oracle does not, so the compiled set would disagree.
            reasons.append("lifespan-clipped calendar")
        else:
            try:
                raw, factored = self._parsed_asts(text, None)
                pset = compile_expression_periodic(
                    factored, system=self.system, resolver=self.resolver,
                    evaluate=lambda win: self.eval_expression(
                        text, window=win, optimize=False),
                    source=text, max_eval_days=max_eval_days,
                    reason_out=reasons, raw=raw, memo=self._closed_memo(),
                    path_out=paths, tracer=tracer)
            except ReproError as exc:
                reasons.append(str(exc))
        handles = self._compile_handles()
        path, oracle_node = paths[-1] if paths else (None, None)
        if handles is not None:
            _, compiled, fallback, by_path = handles
            if path is not None:
                by_path[path].inc()
            (compiled if pset is not None else fallback).inc()
        if meta is not None:
            meta["path"] = path
            meta["oracle_node"] = oracle_node
            if pset is not None:
                meta["form"] = pset.describe()
            else:
                meta["reason"] = reasons[-1] if reasons else "unknown"
        return pset

    # -- rule support ------------------------------------------------------------------

    #: Window quantum for scheduling evaluations: windows are rounded out
    #: to multiples of this many day ticks so that successive
    #: ``next_occurrence`` calls (DBCRON reschedules after every fire)
    #: share cached evaluations instead of re-evaluating a slid window.
    _SCHED_BLOCK = 512

    def _quantize(self, lo: int, hi: int) -> tuple[int, int]:
        block = self._SCHED_BLOCK
        q_lo = (lo // block) * block
        q_hi = ((hi + block - 1) // block) * block
        return (q_lo if q_lo != 0 else -1, q_hi if q_hi != 0 else 1)

    def _scheduling_result(self, name_or_expr: str,
                           window: tuple[int, int]):
        """Evaluate for the scheduler (served from the result memo on
        the quantized window), flattened."""
        if name_or_expr in self.table:
            result = self.evaluate(name_or_expr, window=window)
        else:
            result = self.eval_expression(name_or_expr, window=window)
        if isinstance(result, Calendar):
            result = result.flatten()
        return result

    def next_occurrence(self, name_or_expr: str, after: "int | str",
                        horizon_days: "int | None" = WINDOWED_HORIZON_DAYS,
                        _trust_margin: int = 35) -> int | None:
        """Smallest calendar point strictly after day tick ``after``
        and at most ``horizon_days`` later (``None``: see below).

        ``after`` may also be a date string or CivilDate (normalised via
        the same coercion as ``today=``).  With periodic compilation on,
        a compiled expression answers in O(log offsets) by modular
        arithmetic — no window is ever generated — so with
        ``horizon_days=None`` its answer is returned however far ahead
        it lies.  Otherwise this evaluates over geometrically growing
        (quantized) windows up to ``horizon_days`` ahead
        (:data:`WINDOWED_HORIZON_DAYS` when None); a candidate point is
        only trusted when it lies ``_trust_margin`` days clear of the
        window's end (boundary units may be truncated).  ``None`` means
        no occurrence within the horizon.
        """
        after = self._coerce_tick(after)
        if self.periodic:
            pset = self.periodic_set(name_or_expr)
            if pset is not None:
                candidate = pset.next_occurrence(after)
                if horizon_days is None or candidate is None or \
                        candidate <= after + horizon_days:
                    return candidate
                return None
        if horizon_days is None:
            horizon_days = WINDOWED_HORIZON_DAYS
        horizon = 64
        while True:
            horizon = min(horizon, horizon_days)
            lo = after - 366 if after - 366 != 0 else -1
            hi = after + horizon if after + horizon != 0 else 1
            window = self._quantize(lo, hi)
            result = self._scheduling_result(name_or_expr, window)
            if isinstance(result, Calendar):
                candidate = next_point(result, after)
                if candidate is not None and (
                        candidate <= window[1] - _trust_margin
                        or horizon >= horizon_days):
                    return candidate if candidate <= after + horizon_days \
                        else None
            if horizon >= horizon_days:
                return None
            horizon *= 4

    # -- cache introspection -------------------------------------------------------

    def cache_stats(self) -> dict:
        """Snapshot of the shared materialisation-cache counters, plus
        the result memo's ``result_entries``/``result_intervals``."""
        stats = self.matcache.stats()
        results = self._results.stats()
        stats["result_entries"] = results["entries"]
        stats["result_intervals"] = results["intervals"]
        return stats

    def clear_caches(self) -> None:
        """Drop the materialisation cache's entries and memo and this
        registry's result memo (counters are kept)."""
        self.matcache.clear()
        self._results.clear()

    # -- presentation --------------------------------------------------------------

    def render(self, name: str) -> str:
        """Figure 1-style rendering of a catalog record."""
        return self.record(name).render()
