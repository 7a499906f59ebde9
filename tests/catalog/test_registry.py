"""Unit tests for the calendar registry (define/evaluate/next_occurrence)."""

import pytest

from repro.core import Calendar, CalendarError, Granularity


class TestDefine:
    def test_define_script_calendar(self, registry):
        record = registry.define(
            "MidMonth", script="{return([15]/DAYS:during:MONTHS);}")
        assert record.derivation_script is not None
        assert "MidMonth" in registry

    def test_define_explicit_values(self, registry):
        registry.define("Special", values=[(100, 100), (200, 200)],
                        granularity="DAYS")
        cal = registry.evaluate("Special")
        assert cal.to_pairs() == ((100, 100), (200, 200))

    def test_both_script_and_values_rejected(self, registry):
        with pytest.raises(CalendarError):
            registry.define("Bad", script="{return(DAYS);}",
                            values=[(1, 1)])

    def test_neither_rejected(self, registry):
        with pytest.raises(CalendarError):
            registry.define("Bad")

    def test_duplicate_rejected(self, registry):
        with pytest.raises(CalendarError):
            registry.define("Tuesdays",
                            script="{return([2]/DAYS:during:WEEKS);}")

    def test_replace(self, registry):
        registry.define("Tuesdays",
                        script="{return([3]/DAYS:during:WEEKS);}",
                        granularity="DAYS", replace=True)
        cal = registry.evaluate("Tuesdays",
                                window=("Jan 1 1993", "Jan 31 1993"))
        # Now actually Wednesdays.
        assert all(registry.system.epoch.weekday_of(iv.lo) == 3
                   for iv in cal.elements)

    def test_plan_compiled_for_single_expression(self, registry):
        record = registry.record("Tuesdays")
        assert record.eval_plan is not None

    def test_no_plan_for_multi_statement(self, registry):
        record = registry.define(
            "TwoStep", script="{x = [2]/DAYS:during:WEEKS; return(x);}")
        assert record.eval_plan is None

    def test_granularity_inference_single_expr(self, registry):
        record = registry.define(
            "SomeWeeks", script="{return([2]/WEEKS:during:MONTHS);}")
        assert record.granularity == Granularity.WEEKS

    def test_granularity_inference_through_if(self, registry):
        record = registry.define("Branchy", script="""
        {t = [5]/DAYS:during:WEEKS;
         if (t) return(t); else return([4]/DAYS:during:WEEKS);}
        """)
        assert record.granularity == Granularity.DAYS

    def test_drop(self, registry):
        registry.define("Gone", script="{return(DAYS);}")
        registry.drop("Gone")
        assert "Gone" not in registry
        with pytest.raises(CalendarError):
            registry.record("Gone")


class TestEvaluate:
    def test_plan_and_interpreter_agree(self, registry):
        window = ("Jan 1 1993", "Dec 31 1993")
        via_plan = registry.evaluate("Tuesdays", window=window,
                                     use_plan=True)
        via_interp = registry.evaluate("Tuesdays", window=window,
                                       use_plan=False)
        assert via_plan.to_pairs() == via_interp.to_pairs()

    @pytest.mark.parametrize("window", [
        ("Jan 1 2030", "Dec 31 2030"), ("Jan 1 2031", "Dec 31 2033"),
        ("Jan 1 1993", "Dec 31 1993"), None])
    @pytest.mark.parametrize("year", [2030, 1993])
    def test_stored_plan_agrees_outside_default_window(self, registry, year,
                                                       window):
        """Record plans are compiled once against the default window
        (1987-2011 here) and run under any window: whether the anchor
        year exists is decided per run, so a year outside the default
        window still evaluates where the window holds it."""
        registry.define("FirstMonthDays", script=(
            f"{{return(DAYS:during:[1]/MONTHS:during:{year}/YEARS);}}"))
        via_plan = registry.evaluate("FirstMonthDays", window=window,
                                     use_plan=True)
        via_interp = registry.evaluate("FirstMonthDays", window=window,
                                       use_plan=False)
        assert via_plan.to_pairs() == via_interp.to_pairs()
        holds = window is not None and window[0].endswith(str(year)) or \
            window is None and year == 1993
        assert len(via_plan) == (31 if holds else 0)

    def test_window_as_dates_or_ticks(self, registry):
        d1 = registry.system.day_of("Jan 1 1993")
        d2 = registry.system.day_of("Dec 31 1993")
        by_dates = registry.evaluate("Tuesdays",
                                     window=("Jan 1 1993", "Dec 31 1993"))
        by_ticks = registry.evaluate("Tuesdays", window=(d1, d2))
        assert by_dates.to_pairs() == by_ticks.to_pairs()

    def test_granularity_stamped(self, registry):
        cal = registry.evaluate("Tuesdays",
                                window=("Jan 1 1993", "Jan 31 1993"))
        assert cal.granularity == Granularity.DAYS

    def test_lifespan_clips_result(self, registry):
        registry.define("Nineties",
                        script="{return([n]/DAYS:during:MONTHS);}",
                        granularity="DAYS",
                        lifespan=(1990.0, 1991.0))
        cal = registry.evaluate("Nineties",
                                window=("Jan 1 1989", "Dec 31 1992"))
        years = {registry.system.date_of(iv.lo).year
                 for iv in cal.elements}
        assert years == {1990, 1991}

    def test_eval_expression(self, registry):
        cal = registry.eval_expression(
            "[3]/WEEKS:overlaps:[1]/MONTHS:during:1993/YEARS")
        lo = registry.system.day_of("Jan 11 1993")
        assert cal.to_pairs() == ((lo, lo + 6),)

    def test_eval_expression_unoptimized_agrees(self, registry):
        text = "[3]/WEEKS:overlaps:[1]/MONTHS:during:1993/YEARS"
        assert registry.eval_expression(text, optimize=True).to_pairs() \
            == registry.eval_expression(text, optimize=False).to_pairs()

    def test_eval_script_with_env(self, registry):
        result = registry.eval_script(
            "{return(X + Y);}",
            env={"X": Calendar.point(5), "Y": Calendar.point(9)})
        assert result.to_pairs() == ((5, 5), (9, 9))

    def test_unknown_calendar(self, registry):
        with pytest.raises(CalendarError):
            registry.evaluate("NoSuch")


class TestNextOccurrence:
    def test_next_tuesday(self, registry):
        t0 = registry.system.day_of("Jan 1 1993")  # a Friday
        nxt = registry.next_occurrence("Tuesdays", t0)
        assert str(registry.system.date_of(nxt)) == "Jan 5 1993"

    def test_strictly_after(self, registry):
        tue = registry.system.day_of("Jan 5 1993")
        nxt = registry.next_occurrence("Tuesdays", tue)
        assert str(registry.system.date_of(nxt)) == "Jan 12 1993"

    def test_expression_text(self, registry):
        t0 = registry.system.day_of("Jan 1 1993")
        nxt = registry.next_occurrence("[1]/DAYS:during:MONTHS", t0)
        assert str(registry.system.date_of(nxt)) == "Feb 1 1993"

    def test_horizon_exhausted(self, registry):
        registry.define("OneShot", values=[(10, 10)], granularity="DAYS")
        assert registry.next_occurrence("OneShot", 10,
                                        horizon_days=400) is None

    def test_explicit_horizon_caps_a_compiled_expression(self, registry):
        text = "[1]/DAYS:during:WEEKS:during:2016/YEARS"
        assert registry.periodic_set(text) is not None
        t0 = registry.system.day_of("Jan 1 1993")
        first = registry.next_occurrence(text, t0, horizon_days=None)
        assert registry.system.date_of(first).year == 2016
        # An explicit horizon caps the compiled path as it caps the
        # windowed one; the default is the windowed search's horizon.
        assert registry.next_occurrence(text, t0, horizon_days=30) is None
        assert registry.next_occurrence(text, t0) is None
        assert registry.next_occurrence(
            text, t0, horizon_days=first - t0) == first
        assert registry.next_occurrence(
            text, t0, horizon_days=first - t0 - 1) is None

    def test_far_occurrence_found_by_growing_window(self, registry):
        registry.define("FarShot", values=[(3000, 3000)],
                        granularity="DAYS")
        assert registry.next_occurrence("FarShot", 10) == 3000


class TestRender:
    def test_figure1_via_registry(self, registry):
        text = registry.render("Tuesdays")
        assert "Tuesdays" in text
        assert "Eval-Plan" in text
        assert "set of procedural statements" in text
