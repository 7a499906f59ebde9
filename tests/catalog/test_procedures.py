"""Parameterised calendar procedures and data-to-calendar conversion."""

import pytest

from repro.core import CalendarError
from repro.db import Database, ExecutionError
from repro.finance import EXPIRATION_SCRIPT
from repro.lang.errors import EvaluationError


class TestProcedures:
    def test_expiration_script_as_procedure(self, registry):
        registry.define_procedure("expiration", ["Expiration-Month"],
                                  EXPIRATION_SCRIPT)
        cal = registry.eval_expression(
            "expiration([11]/MONTHS:during:1993/YEARS)")
        assert str(registry.system.date_of(cal.elements[0].lo)) == \
            "Nov 19 1993"

    def test_procedure_composes_with_setops(self, registry):
        registry.define_procedure("expiration", ["Expiration-Month"],
                                  EXPIRATION_SCRIPT)
        cal = registry.eval_expression(
            "expiration([3]/MONTHS:during:1993/YEARS) + "
            "expiration([6]/MONTHS:during:1993/YEARS)")
        months = {registry.system.date_of(iv.lo).month
                  for iv in cal.elements}
        assert months == {3, 6}

    def test_multi_parameter_procedure(self, registry):
        registry.define_procedure(
            "between", ["LOW", "HIGH"],
            "{return(flatten([1-5]/DAYS:during:WEEKS) & (LOW + HIGH));}")
        cal = registry.eval_expression(
            "between(interval(%d, %d), interval(%d, %d))" % (
                registry.system.day_of("Jan 4 1993"),
                registry.system.day_of("Jan 8 1993"),
                registry.system.day_of("Jan 18 1993"),
                registry.system.day_of("Jan 22 1993")))
        assert len(cal) == 10

    def test_wrong_arity(self, registry):
        registry.define_procedure("one_arg", ["X"], "{return(X);}")
        with pytest.raises(EvaluationError):
            registry.eval_expression("one_arg(DAYS, WEEKS)")

    def test_non_calendar_argument_rejected(self, registry):
        registry.define_procedure("one_arg", ["X"], "{return(X);}")
        with pytest.raises(EvaluationError):
            registry.eval_expression('one_arg("not a calendar")')

    def test_name_collision_with_builtin(self, registry):
        with pytest.raises(CalendarError):
            registry.define_procedure("generate", ["X"], "{return(X);}")

    def test_name_collision_with_calendar(self, registry):
        with pytest.raises(CalendarError):
            registry.define_procedure("Tuesdays", ["X"], "{return(X);}")

    def test_duplicate_and_replace(self, registry):
        registry.define_procedure("p1", ["X"], "{return(X);}")
        with pytest.raises(CalendarError):
            registry.define_procedure("p1", ["X"], "{return(X);}")
        registry.define_procedure("p1", ["X"], "{return(X + X);}",
                                  replace=True)

    def test_listing_and_drop(self, registry):
        registry.define_procedure("p2", ["X"], "{return(X);}")
        assert "p2" in registry.procedures()
        registry.drop_procedure("p2")
        assert "p2" not in registry.procedures()
        with pytest.raises(CalendarError):
            registry.drop_procedure("p2")

    def test_procedure_in_temporal_rule(self, registry):
        from repro.rules import DBCron, RuleManager, SimulatedClock
        registry.define_procedure("expiration", ["Expiration-Month"],
                                  EXPIRATION_SCRIPT)
        db = Database(calendars=registry)
        manager = RuleManager(db)
        clock = SimulatedClock(now=db.system.day_of("Nov 1 1993"))
        cron = DBCron(manager, clock, period=7)
        fired = []
        manager.declare_temporal(
            "exp_alert",
            expression="expiration([11]/MONTHS:during:1993/YEARS)",
            callback=lambda d, t: fired.append(t), after=clock.now)
        cron.run_until(db.system.day_of("Dec 1 1993"))
        assert [str(db.system.date_of(t)) for t in fired] == \
            ["Nov 19 1993"]


class TestCalendarFromQuery:
    @pytest.fixture()
    def trade_db(self, db):
        db.create_table("fills", [("day", "abstime"), ("qty", "int4")])
        base = db.system.day_of("Jan 4 1993")
        for offset, qty in [(0, 10), (1, 0), (2, 25), (2, 5), (4, 40)]:
            db.insert("fills", day=base + offset, qty=qty)
        return db, base

    def test_column_collected_sorted_unique(self, trade_db):
        db, base = trade_db
        cal = db.calendar_from_query(
            "retrieve (f.day) from f in fills where f.qty > 0")
        assert cal.to_pairs() == ((base, base), (base + 2, base + 2),
                                  (base + 4, base + 4))

    def test_explicit_column(self, trade_db):
        db, base = trade_db
        cal = db.calendar_from_query(
            "retrieve (f.day, f.qty) from f in fills where f.qty > 20",
            column="day")
        assert len(cal) == 2

    def test_ambiguous_columns_rejected(self, trade_db):
        db, _ = trade_db
        with pytest.raises(ExecutionError):
            db.calendar_from_query(
                "retrieve (f.day, f.qty) from f in fills")

    def test_non_abstime_rejected(self, trade_db):
        db, _ = trade_db
        with pytest.raises(ExecutionError):
            db.calendar_from_query("retrieve (f.qty * 0) from f in fills")

    def test_result_drives_a_rule(self, trade_db):
        db, base = trade_db
        cal = db.calendar_from_query(
            "retrieve (f.day) from f in fills where f.qty > 20")
        db.calendars.define("BIG_FILL_DAYS", values=cal,
                            granularity="DAYS")
        nxt = db.calendars.next_occurrence("BIG_FILL_DAYS", base)
        assert nxt == base + 2
