"""End-to-end extensibility: user-declared listops, functions, ADTs.

The paper's core argument for building on an *extensible* DBMS is that
applications can declare their own operators and have the query language
pick them up.  These tests exercise that path across layers.
"""

import pytest

from repro import Session
from repro.core import Calendar, Interval, foreach, register_listop
from repro.core.interval import LISTOPS, axis_add
from repro.db import Database
from repro.lang.plan import FusedForEachStep
from repro.rules import RuleManager


@pytest.fixture(scope="module", autouse=True)
def custom_listop():
    if "adjacent" not in LISTOPS:
        # adjacent: the intervals touch end-to-start in either direction.
        register_listop(
            "adjacent",
            lambda a, b: a.hi + 1 == b.lo or b.hi + 1 == a.lo,
            clips=False)
    yield


class TestCustomListopInLanguage:
    def test_usable_in_expression(self, registry):
        cal = registry.eval_expression(
            "WEEKS:adjacent:[2]/WEEKS:during:1993/YEARS",
            window=("Jan 1 1993", "Dec 31 1993"))
        # Exactly the weeks before and after week #2 of 1993.
        assert len(cal) == 2

    def test_usable_in_stored_calendar(self, registry):
        registry.define(
            "NEIGHBOUR_WEEKS",
            script="{return(WEEKS:adjacent:[10]/WEEKS:during:"
                   "1993/YEARS);}",
            granularity="DAYS")
        cal = registry.evaluate("NEIGHBOUR_WEEKS",
                                window=("Jan 1 1993", "Dec 31 1993"))
        assert len(cal) == 2

    def test_plan_path_handles_custom_op(self, registry):
        text = "WEEKS:adjacent:[2]/WEEKS:during:1993/YEARS"
        window = ("Jan 1 1993", "Dec 31 1993")
        optimized = registry.eval_expression(text, window=window,
                                             optimize=True)
        reference = registry.eval_expression(text, window=window,
                                             optimize=False)
        assert optimized.to_pairs() == reference.to_pairs()


@pytest.fixture
def replace_during():
    """Swap the builtin ``during`` predicate; restore it afterwards."""
    builtin = LISTOPS["during"]

    def replace(predicate):
        register_listop("during", predicate, replace=True)

    yield replace
    LISTOPS["during"] = builtin


class TestReplacedBuiltinListop:
    """A builtin name whose predicate was replaced runs the new predicate
    over every member; nothing narrows candidates by the old name."""

    CAL = [(1, 2), (5, 6), (10, 12)]

    def test_interval_reference(self, replace_during):
        replace_during(lambda a, b: True)
        out = foreach("during", Calendar.from_intervals(self.CAL),
                      Interval(5, 6), strict=False)
        assert out.to_pairs() == tuple(self.CAL)

    def test_grouping_calendar_reference(self, replace_during):
        replace_during(lambda a, b: True)
        refs = Calendar.from_intervals([(5, 6), (11, 11)])
        out = foreach("during", Calendar.from_intervals(self.CAL), refs,
                      strict=False)
        assert out.to_pairs() == (tuple(self.CAL), tuple(self.CAL))

    def test_fused_plan_in_session_eval(self, replace_during):
        # "the day just before the reference starts": never a day
        # during the week, so any narrowing by the old name loses it.
        replace_during(lambda a, b: axis_add(a.hi, 1) == b.lo)
        session = Session("Jan 1 1987", holiday_years=(1987, 1988))
        session.registry.periodic = False
        try:
            window = ("Jan 4 1993", "Jan 31 1993")
            text = "[1]/DAYS.during.WEEKS"
            steps = session.explain(text, window=window).opt_plan.steps
            assert any(isinstance(step, FusedForEachStep)
                       for step in steps)
            weeks = session.eval("WEEKS", window=window)
            # Weeks tile the axis, so the day before each next week is
            # the last day of the previous one.
            expected = tuple((hi, hi) for _lo, hi in weeks.to_pairs())
            assert session.eval(text, window=window).to_pairs() == expected
        finally:
            session.close()


class TestCustomFunctionInScripts:
    def test_registry_function(self, registry):
        def first_and_last(context, args):
            cal = args[0]
            from repro.core import Calendar
            if len(cal) < 2:
                return cal
            return Calendar.from_intervals(
                [cal.elements[0], cal.elements[-1]], cal.granularity)

        registry.functions["endpoints"] = first_and_last
        cal = registry.eval_expression(
            "endpoints(flatten([1-5]/DAYS:during:[1]/WEEKS:during:"
            "1993/YEARS))", window=("Jan 1 1993", "Dec 31 1993"))
        assert len(cal) == 2  # Monday and Friday of the first 1993 week


class TestCustomAdtInDatabase:
    def test_user_type_and_operator(self, registry):
        db = Database(calendars=registry)
        db.types.define("money", lambda v: isinstance(v, int),
                        "cents as int")
        db.operators.register("+", "money", "money", lambda a, b: a + b)
        db.create_table("fees", [("amount", "money")])
        db.insert("fees", amount=1250)
        result = db.execute(
            "retrieve (f.amount + f.amount as double) from f in fees")
        assert result.rows[0]["double"] == 2500

    def test_custom_operator_beats_builtin(self, registry):
        db = Database(calendars=registry)
        # Declare saturating addition for int4: caps at 100.
        db.operators.register(
            "+", "int4", "int4",
            lambda a, b: min(a + b, 100))
        result = db.execute("retrieve (70 + 50 as capped)")
        assert result.rows[0]["capped"] == 100

    def test_custom_function_in_rule_condition(self, registry):
        db = Database(calendars=registry)
        manager = RuleManager(db)
        db.functions.register("is_vowelish",
                              lambda s: s[:1].lower() in "aeiou")
        db.create_table("names", [("n", "text")])
        db.create_table("vowels", [("n", "text")])
        manager.declare_event(
            "vowel_watch", event="append", relation="names",
            condition="is_vowelish(new.n)",
            actions=["append vowels (n = new.n)"])
        for name in ("ada", "grace", "edsger"):
            db.insert("names", n=name)
        assert db.execute("retrieve (v.n) from v in vowels") \
            .column("n") == ["ada", "edsger"]
