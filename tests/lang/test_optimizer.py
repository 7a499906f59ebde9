"""Unit tests for the cost-aware plan optimizer: pass by pass.

Each pass (CSE, select fusion, foreach merging, selection push-down,
dead-code elimination) is exercised both structurally — the rewritten
plan has the expected step shapes — and semantically: running the
optimized plan yields byte-identical results to the original.
"""

import os

import pytest

from repro.core import Calendar, CalendarSystem, Granularity
from repro.core.algebra import SelectionPredicate
from repro.lang import (
    EvalContext,
    PlanVM,
    compile_expression,
    factorize,
    optimize_plan,
    parse_expression,
    parse_script,
)
from repro.lang.defs import (
    DerivedDef,
    basic_resolver,
    chain_resolvers,
)
from repro.lang.plan import (
    FlattenStep,
    ForEachStep,
    FusedForEachStep,
    GenerateStep,
    MergedForEachStep,
    PipelineForEachStep,
    Plan,
    SelectStep,
    SetOpStep,
    WindowSpec,
)


@pytest.fixture(scope="module")
def sys87():
    return CalendarSystem.starting("Jan 1 1987")


def make_resolver():
    defs = {
        "mondays": DerivedDef(
            parse_script("{return([1]/DAYS:during:WEEKS);}"),
            Granularity.DAYS),
        "januarys": DerivedDef(
            parse_script("{return([1]/MONTHS:during:YEARS);}"),
            Granularity.MONTHS),
    }
    return chain_resolvers(lambda n: defs.get(n.lower()), basic_resolver)


RESOLVER = make_resolver()


def window_of(sys87, y0, y1):
    lo, _ = sys87.epoch.days_of_year(y0)
    _, hi = sys87.epoch.days_of_year(y1)
    return (lo, hi)


def compile_for(sys87, text, window):
    expr = factorize(parse_expression(text), RESOLVER).expression
    return compile_expression(expr, sys87, RESOLVER,
                              context_window=window)


def run_plan(sys87, plan, window):
    ctx = EvalContext(sys87, RESOLVER, window=window)
    return PlanVM(ctx).run(plan)


def assert_equivalent(sys87, before, after, window):
    a = run_plan(sys87, before, window)
    b = run_plan(sys87, after, window)
    assert a == b
    assert a.flatten().to_pairs() == b.flatten().to_pairs()


class TestCSE:
    def test_duplicate_steps_collapse(self, sys87):
        # Hand-built plan with two identical generate+foreach chains
        # feeding a union (the planner's own memoisation would already
        # share them; CSE must catch plans that arrive unshared).
        w = WindowSpec()
        plan = Plan(steps=[
            GenerateStep("t1", Granularity.MONTHS, w),
            GenerateStep("t2", Granularity.DAYS, w),
            ForEachStep("t3", "during", True, "t2", "t1"),
            FlattenStep("t4", "t3"),
            GenerateStep("t5", Granularity.MONTHS, w),
            GenerateStep("t6", Granularity.DAYS, w),
            ForEachStep("t7", "during", True, "t6", "t5"),
            FlattenStep("t8", "t7"),
            SetOpStep("t9", "+", "t4", "t8"),
        ], result="t9")
        window = window_of(sys87, 1993, 1993)
        out = optimize_plan(plan, context_window=window)
        kinds = [type(s).__name__ for s in out.plan.steps]
        assert kinds.count("GenerateStep") == 2
        assert kinds.count("ForEachStep") == 1
        assert kinds.count("FlattenStep") == 1
        assert out.eliminated >= 4
        assert any("cse" in r for r in out.rewrites)
        assert_equivalent(sys87, plan, out.plan, window)

    def test_distinct_windows_not_merged(self, sys87):
        plan = Plan(steps=[
            GenerateStep("t1", Granularity.DAYS, WindowSpec(fixed=(1, 50))),
            GenerateStep("t2", Granularity.DAYS,
                         WindowSpec(fixed=(100, 150))),
            SetOpStep("t3", "+", "t1", "t2"),
        ], result="t3")
        out = optimize_plan(plan,
                            context_window=window_of(sys87, 1993, 1993))
        assert len(out.plan.steps) == 3


class TestSelectFusion:
    def test_select_over_foreach_fuses(self, sys87):
        window = window_of(sys87, 1993, 1994)
        plan = compile_for(sys87, "[1]/(MONTHS:during:YEARS)", window)
        assert any(isinstance(s, SelectStep) for s in plan.steps)
        out = optimize_plan(plan, context_window=window)
        assert any(isinstance(s, FusedForEachStep) for s in out.plan.steps)
        assert not any(isinstance(s, SelectStep) for s in out.plan.steps)
        assert any("fused" in r for r in out.rewrites)
        assert_equivalent(sys87, plan, out.plan, window)

    def test_negative_predicate_fuses(self, sys87):
        window = window_of(sys87, 1993, 1993)
        plan = compile_for(sys87, "[-1]/(WEEKS:during:MONTHS)", window)
        out = optimize_plan(plan, context_window=window)
        assert any(isinstance(s, FusedForEachStep) for s in out.plan.steps)
        assert_equivalent(sys87, plan, out.plan, window)

    def test_shared_foreach_not_fused(self, sys87):
        # The foreach result is consumed twice: fusing it into one
        # select would lose the other consumer's input.
        w = WindowSpec()
        plan = Plan(steps=[
            GenerateStep("t1", Granularity.MONTHS, w),
            GenerateStep("t2", Granularity.WEEKS, w),
            ForEachStep("t3", "during", True, "t2", "t1"),
            SelectStep("t4", SelectionPredicate(items=(1,)), "t3"),
            FlattenStep("t5", "t3"),
            SetOpStep("t6", "+", "t4", "t5"),
        ], result="t6")
        window = window_of(sys87, 1993, 1993)
        out = optimize_plan(plan, context_window=window)
        assert not any(isinstance(s, FusedForEachStep)
                       for s in out.plan.steps)
        assert_equivalent(sys87, plan, out.plan, window)


class TestForeachMerge:
    def test_adjacent_foreach_merge(self, sys87):
        window = window_of(sys87, 1993, 1993)
        plan = compile_for(sys87, "(DAYS:during:WEEKS):during:MONTHS",
                           window)
        out = optimize_plan(plan, context_window=window)
        assert any(isinstance(s, MergedForEachStep)
                   for s in out.plan.steps)
        assert any("merged" in r for r in out.rewrites)
        assert_equivalent(sys87, plan, out.plan, window)


class TestPushDown:
    CANONICAL = "Mondays:during:([1]/(MONTHS:during:YEARS))"

    def test_pipeline_fires_on_canonical_expression(self, sys87):
        window = window_of(sys87, 1987, 2016)
        plan = compile_for(sys87, self.CANONICAL, window)
        out = optimize_plan(plan, context_window=window)
        assert any(isinstance(s, PipelineForEachStep)
                   for s in out.plan.steps)
        assert any("pushdown" in r for r in out.rewrites)
        assert_equivalent(sys87, plan, out.plan, window)

    @pytest.mark.parametrize("text,peak_drop,generated_drop", [
        # The paper's Figure 2 and an unanchored 30-year chain.
        ("Mondays:during:Januarys:during:1993/Years", 10, 5),
        (CANONICAL, 5, 5),
    ])
    def test_pipeline_cuts_live_and_generated_intervals(
            self, sys87, text, peak_drop, generated_drop):
        window = window_of(sys87, 1987, 2016)
        plan = compile_for(sys87, text, window)
        optimized = optimize_plan(plan, context_window=window).plan
        runs = []
        for variant in (plan, optimized):
            ctx = EvalContext(sys87, RESOLVER, window=window)
            ctx.stats["peak_live_intervals"] = 0
            runs.append((PlanVM(ctx).run(variant), ctx.stats))
        (before, off), (after, on) = runs
        assert after == before
        assert off["peak_live_intervals"] >= \
            peak_drop * on["peak_live_intervals"], (off, on)
        assert off["intervals_generated"] >= \
            generated_drop * on["intervals_generated"], (off, on)

    def test_pipeline_skipped_for_huge_reference_sets(self, sys87):
        # Every day of 30 years as references: way past the ref cap.
        window = window_of(sys87, 1987, 2016)
        plan = compile_for(sys87, "Mondays:during:(DAYS:during:MONTHS)",
                           window)
        out = optimize_plan(plan, context_window=window)
        assert not any(isinstance(s, PipelineForEachStep)
                       for s in out.plan.steps)

    def test_pipeline_result_with_n_last_selection(self, sys87):
        window = window_of(sys87, 1990, 1999)
        plan = compile_for(sys87, "Mondays:during:([n]/(MONTHS:during:"
                                  "YEARS))", window)
        out = optimize_plan(plan, context_window=window)
        assert_equivalent(sys87, plan, out.plan, window)


class TestDCE:
    def test_unreferenced_steps_dropped(self, sys87):
        w = WindowSpec()
        plan = Plan(steps=[
            GenerateStep("t1", Granularity.DAYS, w),
            GenerateStep("t2", Granularity.MONTHS, w),  # dead
            GenerateStep("t3", Granularity.WEEKS, w),
            ForEachStep("t4", "during", True, "t1", "t3"),
        ], result="t4")
        window = window_of(sys87, 1993, 1993)
        out = optimize_plan(plan, context_window=window)
        targets = [s.target for s in out.plan.steps]
        assert "t2" not in targets
        assert any("dce" in r for r in out.rewrites)
        assert_equivalent(sys87, plan, out.plan, window)


class TestGating:
    def test_registry_flag_off_keeps_plan(self):
        from repro.catalog import CalendarRegistry
        registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                    optimize=False)
        assert registry.optimize is False

    def test_metrics_and_events_recorded(self, sys87):
        from repro.catalog import CalendarRegistry
        from repro.obs.instrument import Instrumentation, MetricsRegistry
        window = window_of(sys87, 1993, 1994)
        plan = compile_for(sys87, "[1]/(MONTHS:during:YEARS)", window)
        metrics = MetricsRegistry()
        out = optimize_plan(plan, context_window=window, metrics=metrics)
        assert out.rewrites
        snap = metrics.snapshot()
        assert snap.get("optimizer.runs", 0) >= 1
        assert snap.get("optimizer.rewrites", 0) >= 1
        # A traced evaluation records the rewrites on its optimizer.run
        # span, also when the optimised plan comes from the memo.
        inst = Instrumentation(tracing=True)
        registry = CalendarRegistry(sys87, instrumentation=inst)
        for _ in range(2):
            registry.eval_expression("[1]/(MONTHS:during:YEARS)",
                                     window=window, memo=False)
        spans = [span for root in inst.recent_traces()
                 for span in root.find("optimizer.run")]
        assert [span.meta["rewrites"] for span in spans] == \
            [out.rewrites, out.rewrites]

    def test_costs_annotate_final_registers(self, sys87):
        window = window_of(sys87, 1993, 1994)
        plan = compile_for(sys87, "[1]/(MONTHS:during:YEARS)", window)
        out = optimize_plan(plan, context_window=window)
        assert out.costs
        for value in out.costs.values():
            assert value.startswith("~") and value.endswith(" ivs")
