"""Observability overhead gates: what "off" costs, and what "on" costs.

The contract (see docs/IMPLEMENTATION_NOTES.md) is that disabled tracing
adds a single ``tracer is not None`` branch per plan run.  The smoke
test here compares the shipping :class:`PlanVM` (tracer disabled)
against a baseline VM whose ``run`` is the verbatim pre-instrumentation
loop, and asserts the difference stays under 5%.  The labelled-metric
and profiler gates time paired off/on batches; nothing is written.
(That disabled tracing builds no span at all is counted, not timed, in
``tests/obs/test_tracer.py::TestDisabledPath``.)
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

from repro.catalog import (
    CalendarRegistry,
    install_standard_calendars,
    install_us_holidays,
)
from repro.core import CalendarSystem
from repro.core.matcache import MaterialisationCache
from repro.lang.plan import PlanVM
from repro.obs.instrument import Instrumentation

EXPRESSION = "DAYS:during:[1]/MONTHS:during:1993/YEARS"
WINDOW = ("Jan 1 1993", "Dec 31 1994")


class _BaselineVM(PlanVM):
    """The pre-instrumentation run loop, with no tracer branch at all."""

    def run(self, plan):
        registers = {}
        for step in plan.steps:
            registers[step.target] = self._run_step(step, registers)
        return self._finish(plan, registers)


def _build():
    """A plan and context over a private registry (own cache)."""
    instrumentation = Instrumentation()
    registry = CalendarRegistry(
        CalendarSystem.starting("Jan 1 1987"),
        matcache=MaterialisationCache(metrics=instrumentation.metrics),
        instrumentation=instrumentation)
    install_standard_calendars(registry)
    install_us_holidays(registry, 1987, 1996)
    from repro.lang.factorizer import factorize
    from repro.lang.parser import parse_expression
    from repro.lang.planner import compile_expression

    ctx = registry.context(window=WINDOW)
    factored = factorize(parse_expression(EXPRESSION), registry.resolver)
    plan = compile_expression(factored.expression, registry.system,
                              registry.resolver, context_window=ctx.window)
    return plan, ctx


def _best_of(fn, *, loops: int, repeats: int) -> float:
    """Minimum wall time of ``loops`` calls, over ``repeats`` samples."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(loops):
            fn()
        best = min(best, perf_counter() - start)
    return best


def _batch(fn, loops: int) -> float:
    start = perf_counter()
    for _ in range(loops):
        fn()
    return perf_counter() - start


def _paired(time_off, time_on, repeats: int) -> "list[tuple]":
    """``repeats`` (off, on) batch times, taken back to back.

    Which batch runs first alternates from pair to pair, so drift in the
    host's speed within a pair does not always land on the same side.
    Gating the *median of paired deltas* (:func:`_gate`) lets
    clock-frequency drift between samples, which biases the minimum of
    independent batches on shared hardware, hit both sides of every
    pair equally.  The timed work is a representative warm evaluation,
    not a micro-eval: a fixed per-call cost divided by a tiny
    denominator reports a percentage no real workload sees.
    """
    pairs = []
    for index in range(repeats):
        if index % 2:
            on = time_on()
            off = time_off()
        else:
            off = time_off()
            on = time_on()
        pairs.append((off, on))
    return pairs


def _gate(pairs, relative: float, floor: float, what: str) -> None:
    """The median paired delta stays within ``relative`` of the median
    "off" batch, plus an absolute ``floor`` (seconds) for timer jitter."""
    t_off = median(off for off, _ in pairs)
    delta = median(on - off for off, on in pairs)
    assert delta <= t_off * relative + floor, (
        f"{what} overhead too high: off={t_off:.6f}s "
        f"paired-delta={delta:.6f}s; (off, on) per pair: "
        + ", ".join(f"({off:.6f}, {on:.6f})" for off, on in pairs))


class TestDisabledOverheadSmoke:
    def test_disabled_tracing_overhead_under_5_percent(self):
        plan, ctx = _build()
        assert ctx.tracer is None  # tracing off: the branch under test
        vm = PlanVM(ctx)
        baseline = _BaselineVM(ctx)
        # Warm the materialisation cache so both loops measure pure VM
        # dispatch, and check the twins agree before timing them.
        assert vm.run(plan).flatten() == baseline.run(plan).flatten()

        t_base = _best_of(lambda: baseline.run(plan), loops=60, repeats=7)
        t_vm = _best_of(lambda: vm.run(plan), loops=60, repeats=7)
        # 5% relative margin plus a tiny absolute floor against timer
        # jitter on very fast runs.
        assert t_vm <= t_base * 1.05 + 1e-3, (
            f"disabled-tracing overhead too high: "
            f"baseline={t_base:.6f}s instrumented={t_vm:.6f}s")


class TestLabelledMetricsOverhead:
    """Labelled hot-path emitters vs the honest unlabelled baseline.

    The matcache's per-stripe hit/miss counters are the highest-traffic
    labelled emitters (one pre-bound child ``inc()`` per cache probe).
    ``MaterialisationCache(stripe_metrics=False)`` compiles them out
    entirely — not just a disabled branch — so the pair measures the
    full cost of the labelled pipeline: child binding at construction
    plus the per-probe guard and increment, timed as paired batches
    (:func:`_paired`).
    """

    LOOPS, REPEATS = 200, 11

    def _build(self, stripe_metrics: bool):
        instrumentation = Instrumentation()
        cache = MaterialisationCache(metrics=instrumentation.metrics,
                                     stripe_metrics=stripe_metrics)
        registry = CalendarRegistry(
            CalendarSystem.starting("Jan 1 1987"),
            matcache=cache, instrumentation=instrumentation)
        install_standard_calendars(registry)
        return instrumentation, registry, cache

    def test_labelled_hot_path_overhead_under_5_percent(self):
        inst_off, reg_off, cache_off = self._build(stripe_metrics=False)
        inst_on, reg_on, cache_on = self._build(stripe_metrics=True)
        assert inst_off.metrics.get("matcache.stripe.hits") is None
        assert inst_on.metrics.get("matcache.stripe.hits") is not None
        # A multi-year serve (~260 intervals) is the representative hit:
        # the per-probe labelled ``inc`` is measured against real serving
        # work, not a degenerate micro-slice.
        window = reg_on.system.day_window("Jan 1 1990", "Dec 31 1994")

        def probe_off():
            return cache_off.generate(reg_off.system, "WEEKS", "DAYS",
                                      window)

        def probe_on():
            return cache_on.generate(reg_on.system, "WEEKS", "DAYS",
                                     window)

        # Warm both caches (every timed probe is a stripe hit) and
        # check the twins agree before timing.
        assert probe_off().flatten() == probe_on().flatten()

        pairs = _paired(lambda: _batch(probe_off, self.LOOPS),
                        lambda: _batch(probe_on, self.LOOPS),
                        self.REPEATS)
        # The labelled series did take the traffic.
        hits = inst_on.metrics.get("matcache.stripe.hits")
        assert sum(c.value for c in hits.series().values()) >= \
            self.LOOPS * self.REPEATS
        # <5% relative, plus 1us/probe absolute floor for timer jitter.
        _gate(pairs, 0.05, self.LOOPS * 1e-6, "labelled-metrics")


class TestProfilerOverhead:
    """The continuous sampler's drag on the evaluation hot path.

    Paired batches of a warm representative evaluation with the profiler
    stopped vs running at the default ~97 Hz; the median paired delta
    must stay under 2%.  Sampling happens on a separate thread, so the
    cost seen by the workload is GIL contention during each stack walk —
    exactly what "cheap enough to leave on" promises to bound.
    """

    EXPRESSION = "DAYS:during:1993/YEARS"
    LOOPS, REPEATS = 20, 11

    def test_profiler_overhead_under_2_percent(self):
        from repro.obs.profiler import DEFAULT_HERTZ, SamplingProfiler
        from repro.session import Session

        session = Session(instrumentation=Instrumentation(),
                          holiday_years=(1987, 1996))
        profiler = SamplingProfiler(DEFAULT_HERTZ)
        expression = self.EXPRESSION
        for _ in range(3):  # warm the materialisation cache
            session.eval(expression, window=WINDOW)

        def time_off():
            return _batch(lambda: session.eval(expression, window=WINDOW),
                          self.LOOPS)

        def time_on():
            profiler.start()
            try:
                return time_off()
            finally:
                profiler.stop()

        try:
            pairs = _paired(time_off, time_on, self.REPEATS)
        finally:
            session.close()
        # <2% relative, plus 2us/eval absolute floor for timer jitter.
        _gate(pairs, 0.02, self.LOOPS * 2e-6, "profiler")
