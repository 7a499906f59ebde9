"""The registry's result memo: what it serves, when it stops serving it,
what it never stores, how it is bounded and how it is observed.

A catalog write between two serves must change what the second serve
returns; a failing text must fail alike every time; a result that
called a custom function must be recomputed; and a memoised result must
come back unchanged whatever a caller does with the object it got.
"""

from __future__ import annotations

import copy
import pickle
import sys
import threading
import tracemalloc

import pytest

from repro import Session
from repro.catalog import builtins
from repro.catalog import (
    CalendarRegistry,
    install_standard_calendars,
    install_us_holidays,
)
from repro.catalog.results import ResultMemo, held_intervals
from repro.cli import Session as Shell
from repro.core.calendar import Calendar
from repro.core.errors import CalendarError
from repro.core.granularity import Granularity
from repro.core.matcache import MaterialisationCache
from repro.finance import BusinessCalendar
from repro.finance.options import expiration_date, last_trading_day
from repro.lang import parser
from repro.lang.errors import EvaluationError, LoopLimitError
from repro.obs.instrument import Instrumentation
from repro.timeseries import RegularTimeSeries, register_series

LAST_BUS_DAY = "[n]/AM_BUS_DAYS:during:MONTHS"
#: The section 3.3 scripts: last business day of each month (E6) and
#: the last-trading-day alert (E8).
E6 = ("{LDOM_t = [n]/DAYS:during:MONTHS;"
      " LDOM_HOL = LDOM_t:intersects:HOLIDAYS;"
      " LAST_BUS_DAY = [n]/AM_BUS_DAYS:<:LDOM_HOL;"
      " return (LDOM_t - LDOM_HOL + LAST_BUS_DAY);}")
E8 = ("{EM = [11]/MONTHS:during:1993/YEARS;"
      " temp1 = [n]/AM_BUS_DAYS:during:EM;"
      " temp2 = [-7]/AM_BUS_DAYS:<:temp1;"
      " while (today:<:temp2) ;"
      " return (\"LAST TRADING DAY\");}")
YEAR_93 = ("Jan 1 1993", "Dec 31 1993")


@pytest.fixture()
def registry(system87) -> CalendarRegistry:
    """A registry with its own metrics and cache, so the memo counters
    and the memo itself are this test's alone (also under
    ``REPRO_MATCACHE_SIZE=0``, which only sizes the shared cache)."""
    reg = CalendarRegistry(system87, default_horizon_years=10,
                           matcache=MaterialisationCache(),
                           instrumentation=Instrumentation())
    install_standard_calendars(reg)
    install_us_holidays(reg, 1987, 1996)
    return reg


def outcomes(registry) -> dict:
    """The ``registry.result_memo`` counter by outcome."""
    family = registry.instrumentation.metrics.counter(
        "registry.result_memo", labels=("outcome",))
    return {name: family.labels(name).value
            for name in ("hit", "miss", "skip")}


def fingerprint(cal) -> tuple:
    """Everything a served calendar shows: order, granularity, labels,
    every leaf pair and the raw lane bytes."""
    if not isinstance(cal, Calendar):
        return (cal,)
    flat = cal.flatten().columns
    return (cal.order, cal.granularity, cal.labels, len(cal),
            tuple(cal.iter_pairs()), flat.tobytes())


class TestServing:
    def test_repeat_is_served_from_the_memo(self, registry):
        first = registry.evaluate("AM_BUS_DAYS")
        assert registry.evaluate("AM_BUS_DAYS") is first
        text = "([2]/DAYS:during:WEEKS) - HOLIDAYS"
        value = registry.eval_expression(text)
        assert registry.eval_expression(text) is value
        assert outcomes(registry) == {"hit": 2, "miss": 2, "skip": 0}

    def test_reference_paths_bypass_the_memo(self, registry):
        planned = registry.evaluate("AM_BUS_DAYS")
        reference = registry.evaluate("AM_BUS_DAYS", use_plan=False)
        assert reference is not planned and reference == planned
        text = "[2]/DAYS:during:WEEKS"
        optimised = registry.eval_expression(text)
        interpreted = registry.eval_expression(text, optimize=False)
        assert interpreted is not optimised and interpreted == optimised
        assert outcomes(registry)["hit"] == 0

    def test_window_and_today_are_part_of_the_key(self, registry):
        text = "[2]/DAYS:during:WEEKS"
        year93 = registry.eval_expression(
            text, window=("Jan 1 1993", "Dec 31 1993"))
        year94 = registry.eval_expression(
            text, window=("Jan 1 1994", "Dec 31 1994"))
        assert year93 != year94
        # Every accepted window form coerces to the same key.
        ticks = registry._coerce_window(("Jan 1 1993", "Dec 31 1993"))
        assert registry.eval_expression(text, window=ticks) is year93
        assert registry.eval_expression(
            text, window="Jan 1 1993 .. Dec 31 1993") is year93
        window = ("Jan 1 1993", "Dec 31 1993")
        nov = registry.eval_expression("today", window=window,
                                       today="Nov 30 1993")
        dec = registry.eval_expression("today", window=window,
                                       today="Dec 1 1993")
        assert nov.to_pairs() != dec.to_pairs()
        assert registry.eval_expression(
            "today", window=window,
            today=registry.system.day_of("Nov 30 1993")) is nov

    def test_failing_text_fails_alike_every_time(self, registry):
        for _ in range(2):
            with pytest.raises(CalendarError) as caught:
                registry.eval_expression("NOPE_1")
            assert caught.value.context["script"] == "NOPE_1"
        registry.define("BROKEN", script="return (NOPE_2:during:WEEKS)",
                        compile_plan=False)
        errors = []
        for _ in range(2):
            with pytest.raises(CalendarError) as caught:
                registry.evaluate("BROKEN")
            errors.append(caught.value)
        assert type(errors[0]) is type(errors[1])
        assert errors[0].context == errors[1].context
        assert errors[1].context["calendar"] == "BROKEN"
        assert outcomes(registry) == {"hit": 0, "miss": 0, "skip": 4}
        assert registry.cache_stats()["result_entries"] == 0

    def test_disabled_cache_memo_disables_the_result_memo(self, system87):
        reg = CalendarRegistry(system87, default_horizon_years=10,
                               matcache=MaterialisationCache(maxsize=0),
                               instrumentation=Instrumentation())
        install_standard_calendars(reg)
        first = reg.eval_expression("[2]/DAYS:during:WEEKS")
        second = reg.eval_expression("[2]/DAYS:during:WEEKS")
        assert second is not first and second == first
        assert outcomes(reg) == {"hit": 0, "miss": 0, "skip": 0}
        assert reg.cache_stats()["result_entries"] == 0


class TestCatalogWrites:
    """Each catalog write between two serves changes what is served."""

    def test_install_us_holidays_replace(self, registry, monkeypatch):
        # Friday Apr 30 1993 is the last business day of its month ...
        apr30 = registry.system.day_of("Apr 30 1993")
        assert registry.evaluate("AM_BUS_DAYS").contains_point(apr30)
        assert registry.eval_expression(LAST_BUS_DAY).contains_point(apr30)
        # ... until a reinstall makes it one more holiday.
        federal = builtins.us_federal_holidays
        extra = registry.system.date_of(apr30)
        monkeypatch.setattr(
            builtins, "us_federal_holidays",
            lambda year, observed=True: federal(year, observed) + (
                [extra] if year == 1993 else []))
        install_us_holidays(registry, 1987, 1996, replace=True)
        assert not registry.evaluate("AM_BUS_DAYS").contains_point(apr30)
        last = registry.eval_expression(LAST_BUS_DAY)
        assert not last.contains_point(apr30)
        assert last.contains_point(apr30 - 1)
        assert last == registry.eval_expression(LAST_BUS_DAY,
                                                optimize=False)

    def test_redefinition(self, registry):
        registry.define("PAYDAY", script="return ([1]/DAYS:during:MONTHS)")
        first = registry.evaluate("PAYDAY")
        registry.define("PAYDAY", script="return ([2]/DAYS:during:MONTHS)",
                        replace=True)
        second = registry.evaluate("PAYDAY")
        assert second.to_pairs() == tuple(
            (lo + 1, hi + 1) for lo, hi in first.to_pairs())
        assert registry.eval_expression("PAYDAY") == second

    def test_drop(self, registry):
        registry.define("PAYDAY", script="return ([1]/DAYS:during:MONTHS)")
        registry.eval_expression("PAYDAY")
        registry.drop("PAYDAY")
        with pytest.raises(CalendarError):
            registry.eval_expression("PAYDAY")

    def test_define_procedure(self, registry):
        registry.define_procedure("nth_day", ["m"],
                                  "{return ([1]/DAYS:during:m);}")
        text = "nth_day([1]/MONTHS:during:1993/YEARS)"
        first = registry.eval_expression(text)
        assert registry.eval_expression(text) is first
        assert outcomes(registry)["hit"] == 1
        registry.define_procedure("nth_day", ["m"],
                                  "{return ([2]/DAYS:during:m);}",
                                  replace=True)
        second = registry.eval_expression(text)
        assert second.to_pairs() == ((first[0].lo + 1, first[0].hi + 1),)

    def test_register_series(self, registry):
        base = registry.system.day_of("Jan 4 1993")
        days = Calendar.from_intervals([(base + i, base + i)
                                        for i in range(4)])
        register_series(registry,
                        RegularTimeSeries(days, [1, 2, 1, 2], name="s"))
        text = 'pattern("s", "s(t) < s(t+1)")'
        first = registry.eval_expression(text)
        register_series(registry,
                        RegularTimeSeries(days, [2, 1, 2, 1], name="s"))
        second = registry.eval_expression(text)
        assert first.to_pairs() == ((base, base), (base + 2, base + 2))
        assert second.to_pairs() == ((base + 1, base + 1),)

    def test_business_calendar_invalidate_bumps_the_version(self,
                                                            registry):
        bc = BusinessCalendar(registry)
        version = registry.version
        bc.invalidate()
        assert registry.version == version + 1
        assert not hasattr(bc, "_cache")


class TestNeverStored:
    def test_custom_function_is_re_evaluated(self, registry):
        calls = []

        def day_one(context, args):
            calls.append(1)
            return Calendar.point(len(calls), Granularity.DAYS)

        # Added without a version bump: the memo cannot know what it reads.
        registry.functions["day_one"] = day_one
        first = registry.eval_expression("day_one()")
        second = registry.eval_expression("day_one()")
        assert (first.to_pairs(), second.to_pairs()) == (((1, 1),),
                                                        ((2, 2),))
        assert outcomes(registry) == {"hit": 0, "miss": 0, "skip": 2}
        # A text that does not call it is still memoised.
        registry.eval_expression("[2]/DAYS:during:WEEKS")
        assert registry.eval_expression("[2]/DAYS:during:WEEKS") is \
            registry.eval_expression("[2]/DAYS:during:WEEKS")

    def test_replaced_procedure_callable_counts_as_custom(self, registry):
        registry.define_procedure("first_day", ["m"],
                                  "{return ([1]/DAYS:during:m);}")
        registry.functions["first_day"] = lambda context, args: args[0]
        text = "first_day([1]/MONTHS:during:1993/YEARS)"
        registry.eval_expression(text)
        registry.eval_expression(text)
        assert outcomes(registry)["skip"] == 2

    def test_result_over_the_whole_budget_is_skipped(self, registry):
        registry._results.max_intervals = 100
        registry.eval_expression("[2]/DAYS:during:WEEKS")
        assert outcomes(registry)["skip"] == 1
        assert registry.cache_stats()["result_entries"] == 0


class TestScripts:
    """``eval_script`` without ``env``/``while_hook`` reads and fills the
    memo under the ``"script"`` kind; everything else about it is as for
    expressions."""

    def test_repeat_is_served_from_the_memo(self, registry):
        first = registry.eval_script(E6, window=YEAR_93)
        assert registry.eval_script(E6, window=YEAR_93) is first
        assert len(first) == 12
        assert outcomes(registry) == {"hit": 1, "miss": 1, "skip": 0}
        assert registry.cache_stats()["result_entries"] == 1

    def test_catalog_writes_force_a_recompute(self, registry):
        script = "{x = PAYDAY:during:1993/YEARS; return (x);}"
        registry.define("PAYDAY", script="return ([1]/DAYS:during:MONTHS)")
        first = registry.eval_script(script)
        registry.define("PAYDAY", script="return ([2]/DAYS:during:MONTHS)",
                        replace=True)
        second = registry.eval_script(script)
        assert second.to_pairs() == tuple(
            (lo + 1, hi + 1) for lo, hi in first.to_pairs())
        registry.drop("PAYDAY")
        with pytest.raises(CalendarError):
            registry.eval_script(script)
        registry.define_procedure("nth_day", ["m"],
                                  "{return ([1]/DAYS:during:m);}")
        call = "{return (nth_day([1]/MONTHS:during:1993/YEARS));}"
        day1 = registry.eval_script(call)
        assert registry.eval_script(call) is day1
        registry.define_procedure("nth_day", ["m"],
                                  "{return ([2]/DAYS:during:m);}",
                                  replace=True)
        assert registry.eval_script(call).to_pairs() == (
            (day1[0].lo + 1, day1[0].hi + 1),)
        assert outcomes(registry) == {"hit": 1, "miss": 4, "skip": 1}

    def test_today_is_part_of_the_key(self, registry):
        window = ("Oct 1 1993", "Dec 31 1993")
        nov30 = registry.eval_script(E8, window=window, today="Nov 30 1993")
        dec1 = registry.eval_script(E8, window=window, today="Dec 1 1993")
        assert nov30 == dec1 == "LAST TRADING DAY"
        assert registry.cache_stats()["result_entries"] == 2
        assert registry.eval_script(
            E8, window=window,
            today=registry.system.day_of("Nov 30 1993")) is nov30
        assert outcomes(registry) == {"hit": 1, "miss": 2, "skip": 0}

    def test_env_and_while_hook_bypass_the_memo(self, registry):
        lo, hi = registry.system.epoch.days_of_month(1993, 11)
        env = {"Expiration-Month": Calendar.interval(lo, hi)}
        script = "{return ([5]/DAYS:during:WEEKS:during:Expiration-Month);}"
        first = registry.eval_script(script, window=YEAR_93, env=env)
        second = registry.eval_script(script, window=YEAR_93, env=env)
        assert second is not first and second == first
        hooked = []
        for _ in range(2):
            registry.eval_script(E8, window=YEAR_93, today="Nov 15 1993",
                                 while_hook=lambda ctx: hooked.append(1))
        assert len(hooked) == 2
        assert outcomes(registry) == {"hit": 0, "miss": 0, "skip": 0}
        assert registry.cache_stats()["result_entries"] == 0

    @pytest.mark.parametrize("script,error", [
        ("{x = 1993/YEARS; while (x) ; return (x);}", LoopLimitError),
        ("{return (bogus_fn(DAYS));}", EvaluationError),
    ])
    def test_failing_script_fails_alike_every_time(self, registry, script,
                                                   error):
        raised = []
        for _ in range(3):
            with pytest.raises(error) as caught:
                registry.eval_script(script, window=YEAR_93)
            raised.append(caught.value)
        assert len({(type(exc), str(exc)) for exc in raised}) == 1
        assert all(exc.context == {"script": script} for exc in raised)
        assert outcomes(registry) == {"hit": 0, "miss": 0, "skip": 3}
        assert registry.cache_stats()["result_entries"] == 0

    def test_custom_function_is_not_stored(self, registry):
        calls = []

        def day_one(context, args):
            calls.append(1)
            return Calendar.point(len(calls), Granularity.DAYS)

        registry.functions["day_one"] = day_one
        script = "{x = day_one(); return (x);}"
        assert registry.eval_script(script).to_pairs() == ((1, 1),)
        assert registry.eval_script(script).to_pairs() == ((2, 2),)
        assert outcomes(registry) == {"hit": 0, "miss": 0, "skip": 2}

    def test_finance_options_are_unchanged(self, registry):
        nov19 = registry.system.day_of("Nov 19 1993")
        for _ in range(2):
            assert expiration_date(registry, 1993, 11) == nov19
            assert last_trading_day(registry, 1993, 11) == nov19
        assert outcomes(registry) == {"hit": 0, "miss": 0, "skip": 0}
        assert registry.cache_stats()["result_entries"] == 0


class TestSessionRouting:
    """``Session.eval`` sends a text known not to parse as an expression
    straight to the script path."""

    @pytest.fixture()
    def session(self):
        sess = Session("Jan 1 1987", holiday_years=(1987, 1996),
                       instrumentation=Instrumentation())
        yield sess
        sess.close()

    def test_counts_a_warm_script_as_a_hit(self, session):
        results = [session.eval(E6, window=YEAR_93) for _ in range(3)]
        assert results[1] is results[0] and results[2] is results[0]
        # The failed expression attempt counts nothing.
        assert outcomes(session.registry) == {"hit": 2, "miss": 1,
                                              "skip": 0}

    def test_warm_script_runs_no_parser(self, session, monkeypatch):
        first = session.eval(E6, window=YEAR_93)
        parses = []
        for name in ("parse_expression", "parse_script"):
            original = getattr(parser.Parser, name)

            def counted(self, _original=original, _name=name):
                parses.append(_name)
                return _original(self)
            monkeypatch.setattr(parser.Parser, name, counted)
        assert session.eval(E6, window=YEAR_93) is first
        assert session.eval(E6, window=YEAR_93) is first
        assert parses == []
        # A new window runs the script path directly: no expression try.
        session.eval(E6, window=("Jan 1 1994", "Dec 31 1994"))
        assert parses == ["parse_script"]

    def test_warm_script_span(self):
        inst = Instrumentation()
        inst.enable_tracing()
        session = Session("Jan 1 1987", holiday_years=(1987, 1990),
                          instrumentation=inst)
        session.eval(E6, window=("Jan 1 1989", "Dec 31 1989"))
        session.eval(E6, window=("Jan 1 1989", "Dec 31 1989"))
        names = [trace.name for trace in inst.recent_traces()
                 if trace.name.startswith("registry.")]
        assert names == ["registry.eval_expression", "registry.eval_script",
                         "registry.eval_script"]
        computed, served = inst.recent_traces()[-2:]
        assert computed.meta.get("memo") is None
        assert computed.meta["script"] == E6
        assert computed.children[0].name == "registry.context"
        assert computed.children[-1].name == "registry.memo"
        assert served.meta["memo"] == "hit"
        assert [span.name for span in served.children] == \
            ["registry.context"]

    def test_profile_computes_and_stores_nothing(self, session):
        registry = session.registry
        route = ("script text", E6)
        profile = session.profile(E6, window=YEAR_93)
        assert registry.matcache.memo_get(route) is None
        served = session.eval(E6, window=YEAR_93)
        assert registry.matcache.memo_get(route) is True
        before = outcomes(registry)
        profile = session.profile(E6, window=YEAR_93)
        assert profile.result is not served and profile.result == served
        assert profile.root.find("lang.parse")
        session.profile(E6, window=("Jan 1 1994", "Dec 31 1994"))
        assert outcomes(registry) == before
        assert registry.cache_stats()["result_entries"] == 1

    def test_text_defined_later_is_served_by_the_name_route(self, session):
        script = "{return ([1]/DAYS:during:MONTHS:during:1993/YEARS);}"
        as_script = session.eval(script)
        session.registry.define(script, script=script)
        assert script in session.registry
        as_name = session.eval(script)
        assert as_name == as_script
        assert session.registry.cache_stats()["result_entries"] == 1
        assert outcomes(session.registry) == {"hit": 0, "miss": 2,
                                              "skip": 0}


class TestBudget:
    def test_interval_budget_evicts_least_recent(self):
        memo = ResultMemo(max_entries=100, max_intervals=10)
        cals = [Calendar.from_intervals([(2 * i + 1, 2 * i + 1)
                                         for i in range(4)])
                for _ in range(3)]
        for i, cal in enumerate(cals):
            assert memo.put(("k", i), cal, 0)
        # 3 x 4 intervals > 10: the oldest went.
        assert memo.get(("k", 0)) is ResultMemo.MISSING
        assert memo.get(("k", 2)) is cals[2]
        assert memo.stats() == {"entries": 2, "intervals": 8}
        assert not memo.put(("big",), Calendar.from_intervals(
            [(2 * i + 1, 2 * i + 1) for i in range(11)]), 0)

    def test_entry_bound_evicts_least_recent(self):
        memo = ResultMemo(max_entries=2, max_intervals=1000)
        memo.put("a", "A", 0)
        memo.put("b", "B", 0)
        memo.get("a")
        memo.put("c", "C", 0)
        assert memo.get("b") is ResultMemo.MISSING
        assert (memo.get("a"), memo.get("c")) == ("A", "C")

    def test_a_newer_version_drops_older_entries(self):
        memo = ResultMemo()
        memo.put(("a", 1), "A", 1)
        memo.put(("b", 2), "B", 2)
        assert memo.get(("a", 1)) is ResultMemo.MISSING
        assert not memo.put(("c", 1), "C", 1)
        assert memo.stats()["entries"] == 1

    def test_views_count_their_base_buffer(self):
        whole = Calendar.from_intervals([(2 * i + 1, 2 * i + 1)
                                         for i in range(50)])
        view = Calendar._from_columns(whole.columns.slice(10, 12))
        assert len(view) == 2 and held_intervals(view) == 50
        assert held_intervals("LAST TRADING DAY") == 1

    def test_memory_stays_bounded_under_large_distinct_results(
            self, registry):
        budget = 5_000
        registry._results.max_intervals = budget
        text = "DAYS - HOLIDAYS"
        registry.eval_expression(text, window=(1, 100))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            produced = 0
            for n in range(60):
                cal = registry.eval_expression(text, window=(1, 1500 + n))
                produced += len(cal)
                held = registry.cache_stats()["result_intervals"]
                assert held <= budget
            del cal
            grown = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # Keeping every result would hold `produced` intervals, 16 bytes
        # of lanes each and more with their objects; the memo keeps at
        # most `budget` of them.
        assert produced > 10 * budget
        assert grown < 16 * produced / 2, (grown, produced)


class TestConcurrency:
    def test_threads_and_catalog_writes_keep_the_memo_consistent(
            self, registry):
        texts = ["[2]/DAYS:during:WEEKS",
                 "([3]/DAYS:during:WEEKS) - HOLIDAYS",
                 "[n]/AM_BUS_DAYS:during:MONTHS", "AM_BUS_DAYS"]
        expected = {text: registry.eval_expression(text, optimize=False)
                    for text in texts}
        registry._results.max_intervals = 3_000  # evictions under load
        errors = []

        def reader(i):
            try:
                for k in range(30):
                    text = texts[(i + k) % len(texts)]
                    assert registry.eval_expression(text) == expected[text]
            except BaseException as exc:  # reported below
                errors.append(exc)

        def writer():
            try:
                for k in range(10):
                    registry.define("SCRATCH", replace=True,
                                    script=f"return ({k + 1}/YEARS)")
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(6)] + [threading.Thread(target=writer)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        memo = registry._results
        held = sum(cost for _, cost in memo._entries.values())
        assert memo.stats()["intervals"] == held <= 3_000
        # Only one catalog version is ever held.
        assert len({key[-1] for key in memo._entries}) <= 1


class TestImmutability:
    """No public operation on a served result changes the next serve.

    ``Calendar.granularity`` / ``labels`` are plain attributes and the
    lanes are ``array.array``; the library assigns them only in
    constructors, and every method returns a new calendar.
    """

    #: Every public name of Calendar, so a new method must be listed here
    #: (and exercised below) before this test passes.
    PUBLIC = {
        "columns", "group_lanes", "elements", "intervals",
        "from_intervals", "from_calendars", "point", "interval",
        "is_empty", "with_granularity", "with_labels", "label_of",
        "find_label", "iter_intervals", "iter_pairs", "flatten", "span",
        "groups_overlapping", "contains_point", "leaf_count",
        "drop_empty", "union", "difference", "intersection", "shifted",
        "to_pairs",
    }

    def test_public_surface_is_listed(self):
        names = {name for name in dir(Calendar) if not name.startswith("_")}
        assert names == self.PUBLIC

    @pytest.mark.parametrize("text", [
        "AM_BUS_DAYS",
        "MONTHS",
        "WEEKS:during:[1-2]/MONTHS:during:1993/YEARS",
        "DAYS.during.WEEKS.during.MONTHS:during:1993/YEARS",
    ])
    def test_every_public_method_leaves_the_memo_intact(self, registry,
                                                        text):
        evaluate = registry.evaluate if text in registry \
            else registry.eval_expression
        served = evaluate(text)
        before = fingerprint(served)
        other = Calendar.from_intervals([(5, 40)], Granularity.DAYS)
        served.columns, served.group_lanes, served.elements
        served.intervals, served.to_pairs(), list(served.iter_pairs())
        list(served.iter_intervals()), list(served), served[0]
        served.is_empty(), served.span(), served.leaf_count()
        served.contains_point(10), served.label_of(0)
        served.find_label(1), served.drop_empty(), served.flatten()
        str(served), repr(served), hash(served), served == other
        len(served), bool(served)
        served.with_granularity(Granularity.WEEKS)
        served.with_labels(range(len(served)))
        pickle.loads(pickle.dumps(served)), copy.deepcopy(served)
        copy.copy(served)
        Calendar.from_calendars([served]) if served.order == 1 else None
        if served.order == 1:
            for result in (served.union(other), served.difference(other),
                           served.intersection(other), served + other,
                           served - other, served & other,
                           other - served, served.shifted(3)):
                assert result is not served
        elif served.group_lanes is not None:
            served.groups_overlapping(1, 400)
        assert evaluate(text) is served
        assert fingerprint(served) == before
        assert fingerprint(evaluate(text, window=None)) == before


class TestObservability:
    def test_stats_and_shell_line(self):
        session = Shell(epoch="Jan 1 1987", holiday_years=(1987, 1990))
        session.run_line("AM_BUS_DAYS")
        stats = session.registry.cache_stats()
        assert stats["result_entries"] == 1
        assert stats["result_intervals"] == len(
            session.registry.evaluate("AM_BUS_DAYS"))
        out = session.run_line("\\cache")
        assert f"result memo: 1 entries, {stats['result_intervals']} " \
            "intervals" in out
        session.run_line("\\cache clear")
        assert session.registry.cache_stats()["result_entries"] == 0

    def test_hit_is_marked_on_the_span(self):
        inst = Instrumentation()
        inst.enable_tracing()
        session = Session("Jan 1 1987", holiday_years=(1987, 1990),
                          instrumentation=inst)
        for text in ("AM_BUS_DAYS", "[2]/DAYS:during:WEEKS"):
            session.eval(text)
            session.eval(text)
        spans = [trace for trace in inst.recent_traces()
                 if trace.name in ("registry.evaluate",
                                   "registry.eval_expression")]
        assert [span.meta.get("memo") for span in spans] == \
            [None, "hit", None, "hit"]
        assert [span.name for span in spans[1].children] == \
            ["registry.context"]
        assert spans[0].children[0].name == "registry.context"
        assert spans[0].children[-1].name == "registry.memo"

    def test_profile_computes_a_memoised_text(self):
        session = Session("Jan 1 1987", holiday_years=(1987, 1990),
                          instrumentation=Instrumentation())
        text = "[2]/DAYS:during:WEEKS"
        served = session.eval(text)
        profile = session.profile(text)
        assert profile.steps() and profile.result == served
