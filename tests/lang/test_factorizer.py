"""Unit tests for expansion and factorization (E4/E5: Figures 2 and 3)."""

import pytest

from repro.core.granularity import Granularity
from repro.lang import (
    base_calendar_of,
    count_nodes,
    expand,
    factorize,
    granularity_of,
    parse_expression,
    parse_script,
    render_tree,
)
from repro.lang.ast import ForEach, Name, Select
from repro.lang.defs import (
    DerivedDef,
    ExplicitDef,
    basic_resolver,
    chain_resolvers,
)
from repro.core.calendar import Calendar


def make_resolver():
    derived = {
        "mondays": DerivedDef(
            parse_script("{return([1]/DAYS:during:WEEKS);}"),
            Granularity.DAYS),
        "januarys": DerivedDef(
            parse_script("{return([1]/MONTHS:during:YEARS);}"),
            Granularity.MONTHS),
        "third_weeks": DerivedDef(
            parse_script("{return([3]/WEEKS:overlaps:MONTHS);}"),
            Granularity.WEEKS),
        "emp_days": DerivedDef(  # multi-statement: not inlinable
            parse_script("{x = [n]/DAYS:during:MONTHS; return(x);}"),
            Granularity.DAYS),
        "holidays": ExplicitDef(Calendar.from_intervals([(31, 31)]),
                                Granularity.DAYS),
    }
    return chain_resolvers(lambda n: derived.get(n.lower()), basic_resolver)


RESOLVER = make_resolver()


class TestExpand:
    def test_single_expression_inlined(self):
        expr = expand(parse_expression("Mondays"), RESOLVER)
        assert str(expr) == "[1]/DAYS:during:WEEKS"

    def test_nested_inlining(self):
        expr = expand(parse_expression("Mondays:during:Januarys"), RESOLVER)
        assert "MONTHS" in str(expr) and "DAYS" in str(expr)

    def test_multi_statement_not_inlined(self):
        expr = expand(parse_expression("EMP_DAYS"), RESOLVER)
        assert expr == Name("EMP_DAYS")

    def test_temporaries_substituted(self):
        temporaries = {"temp1": parse_expression("[5]/DAYS:during:WEEKS")}
        expr = expand(parse_expression("temp1:during:MONTHS"), RESOLVER,
                      temporaries)
        assert "[5]/DAYS" in str(expr)

    def test_circular_definition_detected(self):
        loop = {"a": DerivedDef(parse_script("{return(b);}")),
                "b": DerivedDef(parse_script("{return(a);}"))}
        resolver = chain_resolvers(lambda n: loop.get(n.lower()),
                                   basic_resolver)
        with pytest.raises(RecursionError):
            expand(parse_expression("a"), resolver)

    def test_basic_names_untouched(self):
        assert expand(parse_expression("WEEKS"), RESOLVER) == Name("WEEKS")


class TestGranularityInference:
    def test_basic(self):
        assert granularity_of(parse_expression("WEEKS"), RESOLVER) == \
            Granularity.WEEKS

    def test_foreach_takes_left(self):
        expr = parse_expression("DAYS:during:MONTHS")
        assert granularity_of(expr, RESOLVER) == Granularity.DAYS

    def test_through_selection(self):
        expr = parse_expression("[1]/MONTHS:during:YEARS")
        assert granularity_of(expr, RESOLVER) == Granularity.MONTHS

    def test_derived(self):
        assert granularity_of(parse_expression("Mondays"), RESOLVER) == \
            Granularity.DAYS

    def test_label_select(self):
        assert granularity_of(parse_expression("1993/YEARS"), RESOLVER) \
            == Granularity.YEARS

    def test_unknown_name(self):
        assert granularity_of(parse_expression("mystery"), RESOLVER) is None


class TestBaseCalendar:
    def test_basic_name(self):
        assert base_calendar_of(parse_expression("YEARS"), RESOLVER) == \
            "YEARS"

    def test_through_selection_and_foreach(self):
        expr = parse_expression("[1]/MONTHS:during:1993/YEARS")
        assert base_calendar_of(expr, RESOLVER) == "MONTHS"

    def test_label_select(self):
        assert base_calendar_of(parse_expression("1993/YEARS"),
                                RESOLVER) == "YEARS"

    def test_non_basic_is_none(self):
        assert base_calendar_of(parse_expression("Mondays"),
                                RESOLVER) is None


class TestPaperExample1:
    """Figure 2: 'Mondays during January 1993'."""

    EXPR = "Mondays:during:Januarys:during:1993/Years"

    def test_factorized_form(self):
        result = factorize(parse_expression(self.EXPR), RESOLVER)
        assert str(result.expression) == \
            "[1]/DAYS:during:WEEKS:during:[1]/MONTHS:during:1993/Years"

    def test_one_rewrite_applied(self):
        result = factorize(parse_expression(self.EXPR), RESOLVER)
        assert result.applied == 1

    def test_factorized_tree_is_smaller(self):
        expanded = expand(parse_expression(self.EXPR), RESOLVER)
        result = factorize(parse_expression(self.EXPR), RESOLVER)
        assert (count_nodes(expanded), count_nodes(result.expression)) == \
            (12, 10)

    def test_render_tree_shows_structure(self):
        result = factorize(parse_expression(self.EXPR), RESOLVER)
        tree = render_tree(result.expression)
        assert "foreach during" in tree
        assert "select-label 1993" in tree


class TestPaperExample2:
    """Figure 3: 'Third week in January 1993' — factorizes twice."""

    EXPR = "Third_Weeks:during:Januarys:during:1993/Years"

    def test_factorized_form(self):
        result = factorize(parse_expression(self.EXPR), RESOLVER)
        assert str(result.expression) == \
            "[3]/WEEKS:overlaps:[1]/MONTHS:during:1993/Years"

    def test_two_rewrites_applied(self):
        result = factorize(parse_expression(self.EXPR), RESOLVER)
        assert result.applied == 2

    def test_factorized_tree_is_smaller(self):
        expanded = expand(parse_expression(self.EXPR), RESOLVER)
        result = factorize(parse_expression(self.EXPR), RESOLVER)
        assert (count_nodes(expanded), count_nodes(result.expression)) == \
            (12, 8)

    def test_rewrites_are_recorded_textually(self):
        result = factorize(parse_expression(self.EXPR), RESOLVER)
        assert all("=>" in r for r in result.rewrites)


@pytest.mark.parametrize("text", [TestPaperExample1.EXPR,
                                  TestPaperExample2.EXPR])
def test_factorized_plan_matches_and_generates_less(text):
    """Figures 2 and 3 over 1987-2016: the factorized compiled plan
    returns what the unfactorized interpreter does, generating fewer
    intervals on the way."""
    from repro.core.basis import CalendarSystem
    from repro.lang import EvalContext, Interpreter, PlanVM, \
        compile_expression

    system = CalendarSystem.starting("Jan 1 1987")
    window = (system.epoch.days_of_year(1987)[0],
              system.epoch.days_of_year(2016)[1])
    naive = EvalContext(system=system, resolver=RESOLVER, window=window)
    planned = EvalContext(system=system, resolver=RESOLVER, window=window)
    factored = factorize(parse_expression(text), RESOLVER).expression
    plan = compile_expression(factored, system, RESOLVER,
                              context_window=window)
    assert PlanVM(planned).run(plan).to_pairs() == Interpreter(
        naive).evaluate(expand(parse_expression(text), RESOLVER)).to_pairs()
    assert planned.stats["intervals_generated"] < \
        naive.stats["intervals_generated"]


class TestRuleGuards:
    def test_no_rewrite_when_granularity_differs(self):
        # (X during WEEKS) during <months-based Z>: WEEKS != MONTHS.
        expr = parse_expression(
            "([1]/DAYS:during:WEEKS):during:[1]/MONTHS:during:1993/YEARS")
        result = factorize(expr, RESOLVER, expand_names=False)
        assert result.applied == 0

    def test_no_rewrite_when_y_is_restricted(self):
        # Y = [1]/MONTHS (Januaries), not the full MONTHS calendar:
        # replacing it by an arbitrary months-subset would be unsound.
        expr = parse_expression(
            "(DAYS:during:[1]/MONTHS):during:[2]/MONTHS:during:1993/YEARS")
        result = factorize(expr, RESOLVER, expand_names=False)
        assert result.applied == 0

    def test_no_rewrite_when_z_base_differs(self):
        expr = parse_expression(
            "(DAYS:during:MONTHS):during:[1]/WEEKS:during:1993/YEARS")
        result = factorize(expr, RESOLVER, expand_names=False)
        assert result.applied == 0

    def test_no_rewrite_when_z_is_not_a_singleton(self):
        # (Tuesdays):during:WEEKS regroups by *every* week; dropping the
        # outer pass would flatten the order-2 result to order-1.  Only
        # statically-singleton anchors (1993/YEARS, ...) may rewrite.
        expr = parse_expression("([2]/DAYS:during:WEEKS):during:WEEKS")
        result = factorize(expr, RESOLVER, expand_names=False)
        assert result.applied == 0

    def test_leq_leq_exception_uses_op2(self):
        expr = parse_expression(
            "(DAYS:<=:MONTHS):<=:[1]/MONTHS:during:1993/YEARS")
        result = factorize(expr, RESOLVER, expand_names=False)
        assert result.applied == 1
        core = result.expression
        assert isinstance(core, ForEach) and core.op == "<="

    def test_fixpoint_terminates(self):
        expr = parse_expression("A:during:B")
        result = factorize(expr, RESOLVER)
        assert result.applied == 0

    def test_strictness_preserved_from_inner(self):
        expr = parse_expression(
            "(WEEKS.overlaps.MONTHS):during:[1]/MONTHS:during:1993/YEARS")
        result = factorize(expr, RESOLVER, expand_names=False)
        assert result.applied == 1
        assert result.expression.strict is False


class TestLeqLeqSemanticEquivalence:
    """Audit of the ≤/≤ exception: the rewritten expression must evaluate
    identically to the original under regrouped calendars, including when
    the inner and outer foreach disagree on strict/relaxed mode (the
    exception's one observable effect is propagating the *outer* flag)."""

    @pytest.fixture()
    def context(self):
        from repro.catalog import CalendarRegistry, \
            install_standard_calendars
        from repro.core.basis import CalendarSystem
        registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"))
        install_standard_calendars(registry)
        return registry.context(("Jan 1 1992", "Dec 31 1994"))

    def _both_ways(self, context, text, expect_applied):
        from repro.lang.interpreter import Interpreter
        original = parse_expression(text)
        rewritten = factorize(original, context.resolver)
        if expect_applied:
            assert rewritten.applied >= 1, text
        else:
            assert rewritten.applied == 0, text
        direct = Interpreter(context).evaluate(original)
        factored = Interpreter(context).evaluate(rewritten.expression)
        return direct, factored

    @pytest.mark.parametrize("text,applies", [
        # strict/strict: the documented X:Op2:Z exception.
        ("(DAYS:<=:MONTHS):<=:[1]/MONTHS:during:1993/YEARS", True),
        # regrouped left arm carrying a selection wrapper.
        ("([2]/DAYS:<=:MONTHS):<=:[1]/MONTHS:during:1993/YEARS", True),
        # Any relaxed flag makes the ≤/≤ rewrite unsound (relaxed ``<=``
        # does not clip, so regrouping changes multiplicity/window):
        # the factorizer must refuse it.
        ("(DAYS.<=.MONTHS):<=:[1]/MONTHS:during:1993/YEARS", False),
        ("(DAYS:<=:MONTHS).<=.[1]/MONTHS:during:1993/YEARS", False),
        ("(DAYS.<=.MONTHS).<=.[1]/MONTHS:during:1993/YEARS", False),
    ])
    def test_rewrite_preserves_evaluation(self, context, text, applies):
        direct, factored = self._both_ways(context, text, applies)
        assert direct.to_pairs() == factored.to_pairs()
        assert direct == factored
