"""The unified entry point: one object wiring the whole stack together.

A :class:`Session` constructs (or adopts) the calendar registry, the
database, the rule manager, the simulated clock and the DBCRON daemon
*together*, attaching one :class:`~repro.obs.instrument.Instrumentation`
to all of them.  It is the recommended facade for programmatic use::

    from repro import Session

    session = Session("Jan 1 1987")
    cal = session.eval("[3]/WEEKS:overlaps:[1]/MONTHS:during:1993/YEARS")
    print(session.explain("AM_BUS_DAYS - HOLIDAYS").render())
    profile = session.profile("[22]/DAYS:during:MONTHS")
    print(profile.render())

The individual constructors (:class:`~repro.catalog.CalendarRegistry`,
:class:`~repro.db.Database`, :class:`~repro.rules.RuleManager`, …) keep
working unchanged; a session merely saves the boilerplate of wiring them
and gives observability (``explain`` / ``profile`` / ``metrics``) one
obvious home.
"""

from __future__ import annotations

import difflib
import gc
import os
import sys
import threading
import time

from dataclasses import dataclass, field
from time import perf_counter

try:
    import resource
except ImportError:  # pragma: no cover — non-POSIX platforms
    resource = None

from repro.catalog import (
    CalendarRegistry,
    install_standard_calendars,
    install_us_holidays,
)
from repro.core import columnar
from repro.core.basis import CalendarSystem
from repro.core.errors import ConfigurationError
from repro.core.matcache import MaterialisationCache
from repro.db import Database
from repro.errors import ReproError
from repro.lang.errors import ParseError, PlanError
from repro.lang.factorizer import factorize
from repro.lang.interpreter import Interpreter
from repro.lang.parser import parse_expression, parse_script
from repro.lang.optimizer import optimize_plan
from repro.lang.plan import PeriodicStep, Plan, PlanVM
from repro.lang.planner import compile_expression
from repro.obs.instrument import Instrumentation
from repro.obs.export import export_json
from repro.obs.profiler import SamplingProfiler
from repro.obs.slowlog import SlowQuery, SlowQueryLog
from repro.obs.tracer import Span, Tracer
from repro.rules import DBCron, RuleManager, RulesFacade, SimulatedClock

__all__ = ["Session", "Explanation", "Profile"]


@dataclass
class Explanation:
    """The annotated evaluation strategy of a calendar expression."""

    #: The expression (or calendar name) that was explained.
    source: str
    #: Rendering of the factorized expression actually evaluated.
    factored: str
    #: Factorizer rewrites applied, in application order.
    rewrites: list[str] = field(default_factory=list)
    #: The compiled evaluation plan *before* optimisation, or None when
    #: the expression can only run through the interpreter.
    plan: Plan | None = None
    #: Why there is no plan (empty when there is one).
    note: str = ""
    #: Whether the optimizer pass ran (``Session.explain(optimized=)``).
    optimized: bool = False
    #: The plan after the optimizer pass (None when ``optimized`` is
    #: False or there is no plan at all).
    opt_plan: Plan | None = None
    #: Optimizer rewrites applied, in application order ("cse: ...").
    opt_rewrites: list[str] = field(default_factory=list)
    #: Steps removed by CSE + dead-code elimination.
    eliminated: int = 0
    #: Per-register cardinality estimates ("t3" -> "~360 ivs").
    costs: dict = field(default_factory=dict)
    #: Execution backend the optimizer chose: "periodic" when the plan
    #: was replaced by a compiled PeriodicStep, else "materialising
    #: chain" (empty when unknown, e.g. interpreter fallback).
    backend: str = ""

    def diff(self) -> str:
        """Unified diff between the pre- and post-optimisation plans."""
        if self.plan is None or self.opt_plan is None:
            return ""
        before = self.plan.text().splitlines()
        after = self.opt_plan.text().splitlines()
        return "\n".join(difflib.unified_diff(
            before, after, fromfile="plan", tofile="optimized",
            lineterm=""))

    def _plan_lines(self, plan: Plan, annotate: bool) -> list[str]:
        lines = []
        for step in plan.steps:
            cost = self.costs.get(step.target) if annotate else None
            suffix = f"   -- {cost}" if cost else ""
            lines.append(f"  {step.describe()}{suffix}")
        lines.append(f"  return {plan.result}")
        return lines

    def render(self) -> str:
        """Readable multi-line rendering of the whole strategy."""
        lines = [f"expression : {self.source}"]
        if self.factored != self.source:
            lines.append(f"factorized : {self.factored}")
        for rewrite in self.rewrites:
            lines.append(f"  rewrite  : {rewrite}")
        if self.plan is not None:
            lines.append(f"plan ({len(self.plan)} steps):")
            lines.extend(self._plan_lines(self.plan, annotate=False))
            if self.optimized and self.opt_plan is not None:
                for rewrite in self.opt_rewrites:
                    lines.append(f"  rewrite  : {rewrite}")
                lines.append(
                    f"optimized plan ({len(self.opt_plan)} steps, "
                    f"{self.eliminated} eliminated):")
                lines.extend(self._plan_lines(self.opt_plan, annotate=True))
                delta = self.diff()
                if delta:
                    lines.append("diff:")
                    lines.extend(f"  {line}"
                                 for line in delta.splitlines())
        else:
            lines.append(f"plan       : none ({self.note or 'interpreter'})")
        if self.backend:
            lines.append(f"backend    : {self.backend}")
        return "\n".join(lines)


@dataclass
class Profile:
    """A timed execution: the span tree of one traced evaluation."""

    #: The expression/script that was profiled.
    source: str
    #: Root span of the traced run ("session.profile").
    root: Span
    #: The evaluation result (usually a Calendar).
    result: object = None

    def steps(self) -> list[Span]:
        """The per-opcode plan VM spans, in execution order."""
        return [span for span in self.root.walk()
                if span.name.startswith("plan.step.")]

    @property
    def coverage(self) -> float:
        """Share of the root's wall time covered by leaf spans.

        Zero-duration point events (``tracer.event``) are annotations,
        not time accounting: a span whose only children are point events
        still counts as a timed leaf.
        """
        total = self.root.duration
        if total <= 0.0:
            return 1.0

        def covered(span: Span) -> float:
            timed = [c for c in span.children
                     if c.children or c.duration > 0.0]
            if not timed:
                return span.duration
            return sum(covered(child) for child in timed)

        return min(1.0, covered(self.root) / total)

    def render(self) -> str:
        """The per-step timing tree (ms and share of total)."""
        return self.root.tree()


@dataclass
class _BatchJob:
    """One unique script of an ``eval_many`` batch, pre-planned."""

    kind: str                     #: "defined" | "expression" | "script"
    text: str
    record: object = None         #: catalog record (defined names)
    factored: object = None       #: factorized AST (expressions)
    plan: Plan | None = None      #: compiled plan when one exists
    parsed: object = None         #: parsed Script (script jobs)
    error: Exception | None = None  #: planning-phase failure, raised later


def _env_float(name: str) -> float | None:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def _env_truthy(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in (
        "1", "true", "yes", "on")


class Session:
    """Registry + database + rules + clock behind one constructor.

    ``Session(epoch)`` builds the full stack with the standard calendars
    installed; ``Session(database=db)`` adopts an existing database (and
    its registry) instead — both leave every component reachable as an
    attribute (``registry``, ``db``, ``manager``, ``clock``, ``cron``)
    so existing code keeps working underneath the facade.
    """

    def __init__(self, epoch: str = "Jan 1 1987", *,
                 system: CalendarSystem | None = None,
                 registry: CalendarRegistry | None = None,
                 database: Database | None = None,
                 horizon_years: int = 30,
                 standard_calendars: bool = True,
                 holiday_years: tuple[int, int] | None = None,
                 clock_start: int = 1, cron_period: int = 7,
                 matcache: MaterialisationCache | None = None,
                 instrumentation: Instrumentation | None = None,
                 workers: int = 1,
                 slow_query_threshold: float | None = None) -> None:
        if workers != 1:
            # The only legal value: batches and DBCRON waves run on the
            # calling thread.  Kept so ``workers=1`` callers still build.
            raise ConfigurationError(
                f"workers={workers!r}: the worker pool was removed; "
                "batches and DBCRON waves run on the calling thread, "
                "so workers must be 1")
        self._explicit_instrumentation = instrumentation
        if database is None:
            if registry is None:
                registry = CalendarRegistry(
                    system or CalendarSystem.starting(epoch),
                    default_horizon_years=horizon_years,
                    matcache=matcache,
                    instrumentation=instrumentation)
                if standard_calendars:
                    install_standard_calendars(registry)
                if holiday_years is not None:
                    install_us_holidays(registry, *holiday_years)
            database = Database(calendars=registry)
        if slow_query_threshold is None:
            slow_query_threshold = _env_float("REPRO_SLOWLOG_SECONDS")
        #: Slow-query log; disabled while the threshold is None.
        self.slowlog = SlowQueryLog(slow_query_threshold)
        #: Wall-clock construction time, backing ``process.uptime_seconds``.
        self._started_wall = time.time()
        #: Lazily constructed continuous profiler (``session.profiler``).
        self._profiler: SamplingProfiler | None = None
        self.attach_database(database, clock_start=clock_start,
                             cron_period=cron_period)
        if _env_truthy("REPRO_PROFILE"):
            self.profiler.start()

    def attach_database(self, database: Database, *,
                        clock_start: int = 1,
                        cron_period: int = 7) -> None:
        """Adopt a database (e.g. a restored one) as this session's stack.

        Rebuilds the rule manager / clock / DBCRON wiring around it and
        re-points the session attributes; the previous components are
        discarded.
        """
        if self._explicit_instrumentation is not None:
            database.calendars.instrumentation = \
                self._explicit_instrumentation
        previous_cron = getattr(self, "cron", None)
        if previous_cron is not None:
            previous_cron.detach()
        self.db = database
        self.registry = database.calendars
        self.system = self.registry.system
        self.manager = database.rule_manager or RuleManager(database)
        self.clock = SimulatedClock(now=clock_start)
        self.cron = DBCron(self.manager, self.clock, period=cron_period)
        #: The unified rule API (``session.rules.on_calendar(...)``);
        #: reads the manager/daemon through the session, so the same
        #: facade object stays valid across re-attachment.  (Explicit
        #: None check: an empty facade is falsy via ``__len__``.)
        if getattr(self, "rules", None) is None:
            self.rules = RulesFacade(self)
        #: Per-script eval_many latency family, bound once so the hot
        #: path pays one dict lookup per job, not a registry round-trip.
        self._script_seconds = self.instrumentation.metrics.histogram(
            "eval.script_seconds",
            "Per-script eval_many latency, labelled by script text",
            labels=("script",), max_series=128)

    # -- observability -------------------------------------------------------

    @property
    def instrumentation(self) -> Instrumentation:
        """The metrics/tracing attachment point shared by the stack."""
        return self.registry.instrumentation

    def metrics(self) -> dict:
        """Snapshot of every metric: name -> value/summary.

        Includes the process-wide ``columnar.materialisations`` counter —
        how many times a column-backed calendar had to build its element
        tuple (0 means every pipeline stayed on the integer lanes) —
        and refreshed process self-metrics (RSS, GC, threads, uptime).
        """
        self._refresh_process_metrics()
        snapshot = self.instrumentation.metrics.snapshot()
        snapshot["columnar.materialisations"] = columnar.MATERIALISATIONS.value
        return snapshot

    def _refresh_process_metrics(self) -> None:
        """Update the ``process.*`` gauges from live process state.

        Called on every metrics snapshot rather than continuously:
        these are point-in-time readings, and paying for them per
        snapshot keeps the idle session at zero overhead.
        """
        metrics = self.instrumentation.metrics
        if resource is not None:
            usage = resource.getrusage(resource.RUSAGE_SELF)
            # ru_maxrss is KiB on Linux, bytes on macOS.
            scale = 1 if sys.platform == "darwin" else 1024
            metrics.gauge(
                "process.rss_bytes",
                "Peak resident set size (ru_maxrss)").set(
                    float(usage.ru_maxrss * scale))
        metrics.gauge(
            "process.threads",
            "Live Python threads").set(float(threading.active_count()))
        metrics.gauge(
            "process.uptime_seconds",
            "Wall seconds since session construction").set(
                time.time() - self._started_wall)
        collections = metrics.gauge(
            "process.gc.collections",
            "Garbage collector runs per generation",
            labels=("generation",))
        collected = metrics.gauge(
            "process.gc.collected",
            "Objects collected per generation",
            labels=("generation",))
        for generation, stats in enumerate(gc.get_stats()):
            collections.labels(str(generation)).set(
                float(stats.get("collections", 0)))
            collected.labels(str(generation)).set(
                float(stats.get("collected", 0)))

    def recent_traces(self) -> list[Span]:
        """Recently finished root spans (requires tracing enabled)."""
        return self.instrumentation.recent_traces()

    def export_json(self, *, traces: bool = True, indent: int = 2) -> str:
        """Metrics (and optionally traces) as a JSON document."""
        return export_json(self.instrumentation, traces=traces,
                           indent=indent)

    def cache_stats(self) -> dict:
        """The shared materialisation cache's counters and latencies."""
        return self.registry.cache_stats()

    def slow_queries(self) -> list[SlowQuery]:
        """Captured slow-query records, oldest first."""
        return self.slowlog.records()

    def close(self) -> None:
        """Stop the profiler."""
        if self._profiler is not None:
            self._profiler.stop()

    # -- profiling -----------------------------------------------------------

    @property
    def profiler(self) -> SamplingProfiler:
        """The session's continuous sampling profiler (lazy).

        Created on first access, stopped by :meth:`close`.  Start it
        explicitly (``session.profiler.start()``), via the CLI's
        ``\\prof on``, or process-wide with ``REPRO_PROFILE=1``.
        """
        if self._profiler is None:
            self._profiler = SamplingProfiler()
        return self._profiler

    # -- evaluation ----------------------------------------------------------

    def eval(self, text: str, *, window=None, today=None):
        """Evaluate a calendar name, expression, or script.

        Defined calendar names go through the catalog (stored plan),
        expressions through factorize+plan, and anything that does not
        parse as a single expression is run as a full script (a repeat
        skips the expression attempt; see :meth:`_run_text`).  Each path
        serves a repeated evaluation from the registry's result memo.
        With a slow-query threshold set, evaluations reaching it are
        captured into the slow-query log; with tracing on as well, the
        evaluation runs under a ``session.eval`` span whose tree the
        record carries.  The disabled cost is the ``enabled`` branch
        below.
        """
        if not self.slowlog.enabled:
            return self._run_text(text, window, today)
        return self._observed_eval(text, window, today)

    def _observed_eval(self, text: str, window, today):
        """The slow-query-logged twin of :meth:`eval`."""
        tracer = self.instrumentation.tracer
        span = None
        error = None
        t0 = perf_counter()
        try:
            if tracer is None:
                return self._run_text(text, window, today)
            with tracer.span("session.eval", source=text) as span:
                return self._run_text(text, window, today)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            self._capture_slow(text, perf_counter() - t0, via="eval",
                               window=window, span=span, error=error)

    def _capture_slow(self, text: str, duration: float, *, via: str,
                      window, span, error: str | None) -> None:
        """Offer one evaluation to the slow-query log.

        The log makes the only threshold check; the window, plan text,
        cache snapshot and span tree are handed over as callables, so
        an evaluation under the threshold pays for none of them (and a
        failure building one is swallowed by the log).  ``span`` is the
        finished span of this evaluation itself, None when tracing was
        off — the threshold works identically with tracing disabled.
        """
        registry = self.registry
        self.slowlog.maybe_record(
            text, duration, via=via, error=error,
            window=lambda: registry._coerce_window(window),
            plan_text=lambda: self.explain(text, window=window).render(),
            cache_stats=lambda: {
                key: value
                for key, value in registry.matcache.stats().items()
                if isinstance(value, (int, float))},
            trace=span.to_dict if isinstance(span, Span) else None)

    def query(self, text: str, bindings: dict | None = None):
        """Execute one Postquel statement against the session database."""
        return self.db.execute(text, bindings)

    def next_occurrence(self, name_or_expr: str, after, **kwargs):
        """Delegate to :meth:`CalendarRegistry.next_occurrence`."""
        return self.registry.next_occurrence(name_or_expr, after, **kwargs)

    def _run_text(self, text: str, window, today, memo: bool = True):
        """Route ``text``: a defined name, else an expression, else a
        script.  A text found not to parse as an expression is
        remembered in the matcache memo (syntax alone decides it, so the
        key holds no catalog version) and goes straight to the script
        path the next time.  ``memo=False`` neither reads nor fills
        that memo, as it bypasses the result memo."""
        registry = self.registry
        if text in registry:
            return registry.evaluate(text, window=window, today=today,
                                     memo=memo)
        route = ("script text", text)
        if not (memo and registry.matcache.memo_get(route)):
            try:
                return registry.eval_expression(text, window=window,
                                                today=today, memo=memo)
            except ParseError:
                if memo:
                    registry.matcache.memo_put(route, True)
        return registry.eval_script(text, window=window, today=today,
                                    memo=memo)

    # -- batch evaluation ----------------------------------------------------

    def eval_many(self, scripts, *, window=None, today=None) -> list:
        """Evaluate a batch of scripts; results in input order.

        Semantically equivalent to ``[self.eval(s, window=window,
        today=today) for s in scripts]`` but structured as a shared-work
        batch (the multi-query evaluation of the paper's shared-calendar
        caching, applied across scripts):

        1. **Plan** — every *unique* script is classified and compiled
           once; duplicate scripts in the batch share one job.
        2. **Hoist** — the GenerateSteps of all compiled plans are
           deduplicated and materialised once into a context cache
           shared by every job, so a basic calendar referenced by N
           scripts is generated (or fetched from the matcache) exactly
           once for the whole batch.
        3. **Execute** — jobs run in input order on the calling thread;
           with tracing on, their spans nest under one
           ``session.eval_many`` root.

        The first exception, by *input* order, is re-raised after all
        jobs settle.
        """
        scripts = list(scripts)
        if not scripts:
            return []
        tracer = self.instrumentation.tracer
        # Deduplicate: input position -> unique-job index.
        unique: dict[str, int] = {}
        order = [unique.setdefault(text, len(unique)) for text in scripts]
        texts = list(unique)
        if tracer is not None:
            with tracer.span("session.eval_many", scripts=len(scripts),
                             unique=len(texts)):
                settled = self._eval_batch(texts, window, today)
        else:
            settled = self._eval_batch(texts, window, today)
        for idx in order:
            error = settled[idx][1]
            if error is not None:
                raise error
        return [settled[idx][0] for idx in order]

    def _eval_batch(self, texts: list, window, today) -> list:
        """Plan + hoist + execute unique ``texts``; [(result, error)]."""
        registry = self.registry
        base_ctx = registry.context(window, today=today)
        shared_cache = base_ctx.cache  # one dict for the whole batch
        tracer = base_ctx.tracer
        if tracer is not None:
            with tracer.span("eval_many.plan", jobs=len(texts)):
                jobs = [self._plan_job(text, base_ctx) for text in texts]
            with tracer.span("eval_many.hoist") as hoist_span:
                before = len(shared_cache)
                self._hoist_generates(jobs, base_ctx)
                hoist_span.meta["materialised"] = \
                    len(shared_cache) - before
        else:
            jobs = [self._plan_job(text, base_ctx) for text in texts]
            self._hoist_generates(jobs, base_ctx)
        settled = []
        for job in jobs:
            if job.error is not None:
                settled.append((None, job.error))
                continue
            try:
                settled.append((self._exec_job(job, window, today,
                                               shared_cache), None))
            except Exception as exc:
                settled.append((None, exc))
        return settled

    def _plan_job(self, text: str, base_ctx) -> _BatchJob:
        """Classify and pre-compile one unique batch script."""
        registry = self.registry
        try:
            if text in registry:
                record = registry.record(text)
                return _BatchJob(kind="defined", text=text, record=record,
                                 plan=record.eval_plan)
            try:
                factored = registry._factorized_ast(text, base_ctx.tracer)
            except ParseError:
                return _BatchJob(kind="script", text=text,
                                 parsed=parse_script(text))
            try:
                plan = registry._compiled_plan(text, factored, base_ctx)
            except PlanError:
                plan = None
            return _BatchJob(kind="expression", text=text,
                             factored=factored, plan=plan)
        except ReproError as exc:
            return _BatchJob(kind="error", text=text,
                             error=exc.add_context(script=text))
        except Exception as exc:
            return _BatchJob(kind="error", text=text, error=exc)

    @staticmethod
    def _hoist_generates(jobs: list, base_ctx) -> None:
        """Materialise every distinct GenerateStep of the batch once.

        ``materialise_basic`` keys on (granularity, unit, padded window,
        mode), so steps shared across plans collapse to one computation
        whose result lands in the batch-shared context cache; the jobs
        then hit that dict without touching the matcache.
        """
        for job in jobs:
            if job.plan is None:
                continue
            for step in job.plan.generate_steps():
                window = step.window.resolve(base_ctx)
                if window is not None:
                    base_ctx.materialise_basic(step.calendar, window,
                                               mode="cover")

    def _exec_job(self, job: _BatchJob, window, today, shared_cache):
        """Run one planned job in a fresh context wired to the shared cache.

        The fresh per-job context keeps mutable evaluation state (env,
        stats) private to the job, while ``shared_cache`` carries the
        hoisted materialisations.
        """
        tracer = self.registry.instrumentation.tracer
        span = None
        error = None
        t0 = perf_counter()
        try:
            if tracer is not None:
                with tracer.span("session.eval_job", script=job.text,
                                 kind=job.kind) as span:
                    return self._exec_job_inner(job, window, today,
                                                shared_cache)
            return self._exec_job_inner(job, window, today, shared_cache)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            duration = perf_counter() - t0
            # Always-on labelled latency (cardinality-governed by the
            # family cap).
            self._script_seconds.labels(job.text).observe(duration)
            if self.slowlog.enabled:
                self._capture_slow(job.text, duration, via="eval_many",
                                   window=window, span=span, error=error)

    def _exec_job_inner(self, job: _BatchJob, window, today, shared_cache):
        registry = self.registry
        ctx = registry.context(window, today=today)
        ctx.cache = shared_cache
        try:
            if job.kind == "defined":
                return registry._evaluate_record(job.record, ctx, True)
            if job.kind == "expression":
                if job.plan is not None:
                    try:
                        return PlanVM(ctx).run(job.plan)
                    except PlanError:
                        pass
                return Interpreter(ctx).evaluate(job.factored)
            return Interpreter(ctx).execute(job.parsed)
        except ReproError as exc:
            if job.kind == "defined":
                raise exc.add_context(
                    calendar=job.text,
                    script=job.record.derivation_script)
            raise exc.add_context(script=job.text)

    # -- explain -------------------------------------------------------------

    def explain(self, text: str, *, window=None,
                optimized: bool | None = None) -> Explanation:
        """The evaluation strategy of an expression, script or defined
        calendar.

        Parses and factorizes ``text`` (or the derivation script of a
        defined calendar), compiles the evaluation plan and reports the
        applied rewrites — without executing anything.  A script, like a
        defined multi-statement calendar, has no plan: the interpreter
        runs it.  With
        ``optimized`` (default: the registry's optimizer gate) the
        optimizer pass also runs and the explanation carries the
        post-rewrite plan, the applied rewrites, per-step cardinality
        estimates and a unified diff of eliminated/fused steps.
        """
        registry = self.registry
        source = text
        if text in registry:
            record = registry.record(text)
            if record.is_explicit:
                return Explanation(source=text, factored=text,
                                   note="explicit calendar (stored values)")
            parsed = record.parsed_script
            if not parsed.is_single_expression():
                return Explanation(
                    source=text,
                    factored=record.derivation_script or text,
                    note="multi-statement script (interpreter)")
            expr = parsed.single_expression()
        else:
            try:
                expr = parse_expression(text)
            except ParseError as exc:
                # Session.eval runs such a text as a script, if it is one.
                try:
                    parse_script(text)
                except ParseError:
                    raise exc from None
                return Explanation(
                    source=text, factored=text,
                    note="multi-statement script (interpreter)")
        result = factorize(expr, registry.resolver)
        ctx_window = registry._coerce_window(window)
        try:
            plan = compile_expression(result.expression, registry.system,
                                      registry.resolver,
                                      context_window=ctx_window)
        except PlanError as exc:
            return Explanation(source=source,
                               factored=str(result.expression),
                               rewrites=list(result.rewrites),
                               note=f"interpreter fallback: {exc}")
        if optimized is None:
            optimized = registry.optimize
        explanation = Explanation(source=source,
                                  factored=str(result.expression),
                                  rewrites=list(result.rewrites), plan=plan)
        if optimized:
            # peek: explain must stay side-effect free, and compiling
            # a periodic form evaluates the expression as its oracle.
            pset = registry.periodic_set(text, peek=True) \
                if registry.periodic else None
            opt = optimize_plan(plan, context_window=ctx_window,
                                periodic=pset)
            explanation.optimized = True
            explanation.opt_plan = opt.plan
            explanation.opt_rewrites = list(opt.rewrites)
            explanation.eliminated = opt.eliminated
            explanation.costs = dict(opt.costs)
            if any(isinstance(step, PeriodicStep)
                   for step in opt.plan.steps):
                explanation.backend = f"periodic ({pset.describe()})"
            else:
                explanation.backend = "materialising chain"
        return explanation

    # -- profile -------------------------------------------------------------

    def profile(self, text: str, *, window=None, today=None) -> Profile:
        """Execute ``text`` with tracing forced on; the timing tree.

        A private tracer is installed for the duration of the run (the
        session's normal tracing state and trace ring are untouched) and
        the root span wraps the whole evaluation, so
        :attr:`Profile.coverage` reports how much of the wall time the
        leaf spans account for.  The text is computed even when the
        registry's result memo holds it, so the tree shows the work.
        """
        inst = self.instrumentation
        private = Tracer(ring_size=4)
        previous = inst.swap_tracer(private, tracing=True)
        try:
            with private.span("session.profile", source=text):
                result = self._run_text(text, window, today, memo=False)
        finally:
            inst.swap_tracer(*previous)
        root = private.recent()[-1]
        return Profile(source=text, root=root, result=result)
