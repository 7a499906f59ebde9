"""Property-based tests: DBCRON fires exactly on calendar points.

Random explicit calendars and probe periods; the daemon must fire once
per calendar point after the start, never early, regardless of T.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.catalog import CalendarRegistry
from repro.core import CalendarSystem
from repro.db import Database
from repro.rules import DBCron, RuleManager, SimulatedClock

fire_days = st.lists(st.integers(min_value=10, max_value=400),
                     min_size=1, max_size=15, unique=True)
periods = st.integers(min_value=1, max_value=40)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fire_days, periods)
def test_fires_exactly_on_calendar_points(days, period):
    registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                default_horizon_years=3)
    db = Database(calendars=registry)
    registry.define("SCHEDULE", values=[(d, d) for d in sorted(days)],
                    granularity="DAYS")
    manager = RuleManager(db)
    clock = SimulatedClock(now=1)
    cron = DBCron(manager, clock, period=period)
    fired: list[tuple[int, int]] = []
    manager.declare_temporal(
        "r", expression="SCHEDULE",
        callback=lambda d, t: fired.append((t, clock.now)), after=1)
    cron.run_until(450)

    fire_ticks = [t for t, _ in fired]
    assert fire_ticks == sorted(days), \
        f"period={period}: fired {fire_ticks}, expected {sorted(days)}"
    # Never fires before its scheduled tick.
    assert all(tick <= now for tick, now in fired)
    # Fires within one probe period of the scheduled tick.
    assert all(now - tick <= period for tick, now in fired)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(fire_days, min_size=2, max_size=4), periods)
def test_multiple_rules_independent(schedules, period):
    registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                default_horizon_years=3)
    db = Database(calendars=registry)
    manager = RuleManager(db)
    clock = SimulatedClock(now=1)
    cron = DBCron(manager, clock, period=period)
    fired: dict[int, list[int]] = {}
    for i, days in enumerate(schedules):
        registry.define(f"S{i}", values=[(d, d) for d in sorted(days)],
                        granularity="DAYS")
        fired[i] = []
        manager.declare_temporal(
            f"rule{i}", expression=f"S{i}",
            callback=(lambda idx: lambda d, t: fired[idx].append(t))(i),
            after=1)
    cron.run_until(450)
    for i, days in enumerate(schedules):
        assert fired[i] == sorted(days)


@settings(max_examples=40, deadline=None)
@given(fire_days, st.integers(min_value=1, max_value=420))
def test_next_occurrence_equals_brute_force(days, after):
    """The scheduler primitive agrees with a brute-force minimum."""
    registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                default_horizon_years=3)
    registry.define("SCHED2", values=[(d, d) for d in sorted(days)],
                    granularity="DAYS")
    expected = min((d for d in days if d > after), default=None)
    assert registry.next_occurrence("SCHED2", after,
                                    horizon_days=600) == expected
