"""Series patterns inside calendar expressions and temporal rules (§6a)."""

import pytest

from repro.core import Calendar, CalendarError
from repro.db import Database
from repro.rules import DBCron, RuleManager, SimulatedClock
from repro.timeseries import (
    RegularTimeSeries,
    drop_series,
    register_series,
    registered_series,
)


@pytest.fixture()
def priced_registry(registry):
    base = registry.system.day_of("Jan 4 1993")
    days = Calendar.from_intervals([(base + i, base + i)
                                    for i in range(10)])
    close = RegularTimeSeries(
        days, [100, 102, 101, 105, 107, 107, 103, 104, 108, 106],
        name="close")
    register_series(registry, close)
    return registry, base


class TestPatternFunction:
    def test_pattern_in_expression(self, priced_registry):
        registry, base = priced_registry
        cal = registry.eval_expression(
            'pattern("close", "s(t) < s(t+1)")')
        assert cal.to_pairs() == tuple(
            (base + i, base + i) for i in (0, 2, 3, 6, 7))

    def test_composes_with_algebra(self, priced_registry):
        registry, base = priced_registry
        cal = registry.eval_expression(
            'pattern("close", "s(t) < s(t+1)") & '
            'flatten([1-5]/DAYS:during:WEEKS)')
        # Jan 4 1993 (base) is a Monday; the base+6 increase falls on a
        # Sunday and is filtered out by the weekday intersection.
        assert {iv.lo for iv in cal.elements} == \
            {base, base + 2, base + 3, base + 7}

    def test_unknown_series(self, priced_registry):
        registry, _ = priced_registry
        with pytest.raises(CalendarError):
            registry.eval_expression('pattern("mystery", "s(t) > 1")')

    def test_bad_arity(self, priced_registry):
        registry, _ = priced_registry
        with pytest.raises(CalendarError):
            registry.eval_expression('pattern("close")')

    def test_registered_and_drop(self, priced_registry):
        registry, _ = priced_registry
        assert registered_series(registry) == ["close"]
        drop_series(registry, "CLOSE")
        assert registered_series(registry) == []
        with pytest.raises(CalendarError):
            drop_series(registry, "close")

    def test_reregistration_invalidates_cache(self, priced_registry):
        registry, base = priced_registry
        first = registry.eval_expression(
            'pattern("close", "s(t) < s(t+1)")')
        days = Calendar.from_intervals([(base, base), (base + 1,
                                                       base + 1)])
        register_series(
            registry, RegularTimeSeries(days, [5, 1], name="close"))
        second = registry.eval_expression(
            'pattern("close", "s(t) < s(t+1)")')
        assert first.to_pairs() != second.to_pairs()
        assert second.is_empty()


class TestDataTriggeredRules:
    def test_temporal_rule_on_pattern(self, priced_registry):
        registry, base = priced_registry
        db = Database(calendars=registry)
        manager = RuleManager(db)
        clock = SimulatedClock(now=base - 1)
        cron = DBCron(manager, clock, period=2)
        fired = []
        manager.declare_temporal(
            "uptick", expression='pattern("close", "s(t) < s(t+1)")',
            callback=lambda d, t: fired.append(t), after=clock.now)
        cron.run_until(base + 12)
        assert fired == [base, base + 2, base + 3, base + 6, base + 7]

    def test_rule_catalog_stores_pattern_expression(self, priced_registry):
        registry, base = priced_registry
        db = Database(calendars=registry)
        manager = RuleManager(db)
        manager.declare_temporal(
            "uptick", expression='pattern("close", "s(t) < s(t+1)")',
            callback=lambda d, t: None, after=base - 1)
        rows = db.execute(
            "retrieve (r.expression) from r in rule_info")
        assert 'pattern("close"' in rows.rows[0]["expression"]
