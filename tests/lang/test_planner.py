"""Unit tests for the plan compiler: window narrowing, caching, VM."""

import pytest

from repro.core import Calendar, CalendarSystem, Granularity
from repro.lang import (
    EvalContext,
    Interpreter,
    PlanVM,
    compile_expression,
    factorize,
    parse_expression,
    parse_script,
)
from repro.lang.defs import (
    DerivedDef,
    ExplicitDef,
    basic_resolver,
    chain_resolvers,
)
from repro.lang.plan import (
    ForEachStep,
    GenerateStep,
    LoadStep,
    SelectStep,
)


@pytest.fixture(scope="module")
def sys87():
    return CalendarSystem.starting("Jan 1 1987")


def make_resolver():
    defs = {
        "mondays": DerivedDef(
            parse_script("{return([1]/DAYS:during:WEEKS);}"),
            Granularity.DAYS),
        "emp_days": DerivedDef(
            parse_script("{x = [n]/DAYS:during:MONTHS; return(x);}"),
            Granularity.DAYS),
        "holidays": ExplicitDef(Calendar.from_intervals([(100, 100)]),
                                Granularity.DAYS),
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
                              context_window=window), expr


class TestWindowNarrowing:
    def test_label_select_narrows_generate(self, sys87):
        window = window_of(sys87, 1987, 2016)
        plan, _ = compile_for(sys87, "1993/YEARS", window)
        (step,) = plan.generate_steps()
        lo, hi = sys87.epoch.days_of_year(1993)
        assert step.window.fixed == (lo, hi)

    def test_narrowing_propagates_into_chain(self, sys87):
        window = window_of(sys87, 1987, 2016)
        plan, _ = compile_for(
            sys87, "Mondays:during:Januarys_x:during:1993/YEARS", window) \
            if False else compile_for(
            sys87,
            "[1]/DAYS:during:WEEKS:during:[1]/MONTHS:during:1993/YEARS",
            window)
        for step in plan.generate_steps():
            assert step.window.fixed is not None
            # Every generated window is a small slice of the 30-year
            # context (year + padding), never the whole context.
            lo, hi = step.window.fixed
            assert hi - lo < 366 + 2 * 400

    def test_unrestricted_expression_uses_context(self, sys87):
        window = window_of(sys87, 1987, 2016)
        plan, _ = compile_for(sys87, "[2]/DAYS:during:WEEKS", window)
        for step in plan.generate_steps():
            assert step.window.fixed is None

    def test_lookback_extends_to_context_start(self, sys87):
        window = window_of(sys87, 1987, 2016)
        plan, _ = compile_for(
            sys87, "[n]/DAYS:<:[1]/MONTHS:during:1993/YEARS", window)
        day_steps = [s for s in plan.generate_steps()
                     if s.calendar == Granularity.DAYS]
        assert any(s.window.fixed is not None
                   and s.window.fixed[0] == window[0]
                   for s in day_steps)

    def test_narrowed_generation_stays_flat_across_horizons(self, sys87):
        """Section 3.4's look-ahead in counts: naive generation grows
        with the context window, the narrowed plan's does not.  Over
        1987-1991 the anchor year lies outside the window, so the label
        select is empty there and the plan generates nothing."""
        text = "[2]/DAYS:during:WEEKS:during:[1]/MONTHS:during:1993/YEARS"
        naive, narrowed = {}, {}
        for years in (5, 10, 20, 40):
            window = window_of(sys87, 1987, 1987 + years - 1)
            plan, _ = compile_for(sys87, text, window)
            ctx_plan = EvalContext(system=sys87, resolver=RESOLVER,
                                   window=window)
            ctx_interp = EvalContext(system=sys87, resolver=RESOLVER,
                                     window=window)
            got = PlanVM(ctx_plan).run(plan).to_pairs()
            assert got == Interpreter(ctx_interp).evaluate(
                parse_expression(text)).to_pairs()
            assert bool(got) == (years > 5)
            naive[years] = ctx_interp.stats["intervals_generated"]
            narrowed[years] = ctx_plan.stats["intervals_generated"]
        assert narrowed[5] <= 0.02 * naive[5]
        flat = [narrowed[years] for years in (10, 20, 40)]
        assert max(flat) - min(flat) <= 0.02 * min(flat)
        assert naive[40] > 4 * naive[5]
        assert naive[40] > 10 * narrowed[40]


class TestSharedSubexpressions:
    def test_repeated_basic_generated_once(self, sys87):
        window = window_of(sys87, 1990, 1995)
        plan, _ = compile_for(
            sys87, "([1]/DAYS:during:WEEKS) + ([2]/DAYS:during:WEEKS)",
            window)
        generates = plan.generate_steps()
        kinds = [(s.calendar, s.window) for s in generates]
        assert len(kinds) == len(set(kinds)) == 2  # DAYS and WEEKS once

    def test_identical_subtrees_share_registers(self, sys87):
        window = window_of(sys87, 1990, 1995)
        plan, _ = compile_for(
            sys87, "([1]/DAYS:during:WEEKS) - ([1]/DAYS:during:WEEKS)",
            window)
        selects = [s for s in plan.steps if isinstance(s, SelectStep)]
        assert len(selects) == 1

    def test_explicit_and_derived_load_steps(self, sys87):
        window = window_of(sys87, 1990, 1995)
        plan, _ = compile_for(sys87, "EMP_DAYS - HOLIDAYS", window)
        loads = [s for s in plan.steps if isinstance(s, LoadStep)]
        assert {s.name.lower() for s in loads} == {"emp_days", "holidays"}


class TestPlanShape:
    def test_plan_text_render(self, sys87):
        window = window_of(sys87, 1990, 1995)
        plan, _ = compile_for(sys87, "[2]/DAYS:during:WEEKS", window)
        text = plan.text()
        assert "generate(DAYS" in text
        assert "select [2]" in text
        assert text.strip().endswith(f"return {plan.result}")

    def test_foreach_step_strictness(self, sys87):
        window = window_of(sys87, 1990, 1995)
        plan, _ = compile_for(sys87, "WEEKS.overlaps.MONTHS", window)
        (step,) = [s for s in plan.steps if isinstance(s, ForEachStep)]
        assert step.strict is False

    def test_caloperate_and_flatten_compile(self, sys87):
        window = window_of(sys87, 1990, 1995)
        plan, _ = compile_for(
            sys87, "flatten(caloperate(MONTHS, *; 3))", window)
        assert "caloperate" in plan.text()
        assert "flatten" in plan.text()


class TestDifferentialPlanVsInterpreter:
    """The plan VM must agree with the reference interpreter."""

    EXPRESSIONS = [
        "[2]/DAYS:during:WEEKS:during:[1]/MONTHS:during:1993/YEARS",
        "[3]/WEEKS:overlaps:[1]/MONTHS:during:1993/YEARS",
        "[n]/DAYS:during:MONTHS",
        "WEEKS:during:1993/YEARS",
        "[n]/DAYS:<:[1]/MONTHS:during:1993/YEARS",
        "([n]/DAYS:during:MONTHS) - HOLIDAYS",
        "flatten([1-5]/DAYS:during:WEEKS)",
        "caloperate(MONTHS, *; 3)",
        "1993/YEARS + 1994/YEARS",
        "[-2]/DAYS:during:MONTHS",
        'generate(YEARS, DAYS, "Jan 1 1987", "Jan 3 1992")',
    ]

    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_same_result(self, sys87, text):
        window = window_of(sys87, 1991, 1995)
        plan, expr = compile_for(sys87, text, window)
        ctx_plan = EvalContext(system=sys87, resolver=RESOLVER,
                               window=window)
        ctx_interp = EvalContext(system=sys87, resolver=RESOLVER,
                                 window=window)
        from_plan = PlanVM(ctx_plan).run(plan)
        from_interp = Interpreter(ctx_interp).evaluate(expr)
        assert from_plan.to_pairs() == from_interp.to_pairs()

    def test_narrowed_plan_generates_fewer_intervals(self, sys87):
        window = window_of(sys87, 1987, 2016)
        text = "[2]/DAYS:during:WEEKS:during:[1]/MONTHS:during:1993/YEARS"
        plan, expr = compile_for(sys87, text, window)
        ctx_plan = EvalContext(system=sys87, resolver=RESOLVER,
                               window=window)
        ctx_interp = EvalContext(system=sys87, resolver=RESOLVER,
                                 window=window)
        assert PlanVM(ctx_plan).run(plan).to_pairs() == \
            Interpreter(ctx_interp).evaluate(expr).to_pairs()
        assert ctx_plan.stats["intervals_generated"] < \
            ctx_interp.stats["intervals_generated"] / 3


class TestPlanErrors:
    def test_unknown_name(self, sys87):
        from repro.lang.errors import PlanError
        with pytest.raises(PlanError):
            compile_expression(parse_expression("NOPE"), sys87, RESOLVER)

    def test_vm_missing_result_register(self, sys87):
        from repro.lang.errors import PlanError
        from repro.lang.plan import Plan
        ctx = EvalContext(system=sys87, resolver=RESOLVER, window=(1, 10))
        with pytest.raises(PlanError):
            PlanVM(ctx).run(Plan([], "t1"))


class TestFunctionPlanSteps:
    """shift/instants/hull compile to plan steps matching the interpreter."""

    FUNCTION_EXPRESSIONS = [
        "shift([n]/DAYS:during:MONTHS, -3)",
        "instants([1]/WEEKS:during:MONTHS)",
        "hull([2]/DAYS:during:WEEKS)",
        "shift(hull([1]/MONTHS:during:1993/YEARS), 7)",
    ]

    @pytest.mark.parametrize("text", FUNCTION_EXPRESSIONS)
    def test_plan_matches_interpreter(self, sys87, text):
        window = window_of(sys87, 1992, 1994)
        plan, expr = compile_for(sys87, text, window)
        ctx_plan = EvalContext(system=sys87, resolver=RESOLVER,
                               window=window)
        ctx_interp = EvalContext(system=sys87, resolver=RESOLVER,
                                 window=window)
        assert PlanVM(ctx_plan).run(plan).to_pairs() == \
            Interpreter(ctx_interp).evaluate(expr).to_pairs()

    def test_steps_render_in_plan_text(self, sys87):
        window = window_of(sys87, 1992, 1994)
        plan, _ = compile_for(
            sys87, "shift(instants(hull([1]/WEEKS:during:MONTHS)), 2)",
            window)
        text = plan.text()
        assert "shift(" in text and "instants(" in text and "hull(" in text
