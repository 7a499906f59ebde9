"""DBCRON waves: rules due at one tick fire as one batch.

A wave fires its rules one by one in wave order, then writes their
RULE_TIME rows and re-arms them once (``RuleManager.fire_wave``).  These
tests pin what that batching must not change — fire order, fire ticks,
RULE_TIME after each wave — and the error path: a raising rule must not
take the rest of its wave out of the schedule.
"""

import sys
import time

import pytest

from repro.catalog import CalendarRegistry
from repro.core import CalendarSystem
from repro.db import Database
from repro.db.errors import RuleError
from repro.obs.instrument import Instrumentation
from repro.obs.telemetry import CallbackSink
from repro.rules import (
    DBCron,
    HeapSchedule,
    RuleManager,
    SimulatedClock,
    WheelSchedule,
)
from repro.runtime import WorkerPool
from repro.session import Session

TUESDAYS = "[2]/DAYS:during:WEEKS"
#: Jan 1 1987 (tick 1) is a Thursday: Tuesdays are ticks 6, 13, 20, 27.
TUESDAY_TICKS = [6, 13, 20, 27]


@pytest.fixture()
def stack():
    registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                default_horizon_years=3)
    db = Database(calendars=registry)
    manager = RuleManager(db)
    clock = SimulatedClock(now=1)
    pool = WorkerPool(1)
    yield registry, db, manager, clock, pool
    pool.close()


def _daemon(manager, clock, pool, scheduler):
    """A daemon on the heap oracle or the default wheel."""
    cron = DBCron(manager, clock, period=7, pool=pool,
                  schedule=HeapSchedule() if scheduler == "heap" else None)
    assert isinstance(cron.sched, HeapSchedule) == (scheduler == "heap")
    return cron


def _rule_time(db) -> list:
    return sorted((row["rulename"], row["next_fire"])
                  for row in db.relation("rule_time").scan())


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
def test_raising_rule_keeps_its_wave_scheduled(stack, scheduler):
    # Regression: pop_wave disarms a whole wave before any of it fires,
    # and one raising callback used to leave the rest of the wave (and
    # itself) unarmed for good: the second rule never fired again.
    _, db, manager, clock, pool = stack
    cron = _daemon(manager, clock, pool, scheduler)
    fired = {"bad": [], "good": []}

    def bad(_db, tick):
        fired["bad"].append(tick)
        raise RuntimeError("boom")

    manager.declare_temporal("bad", expression=TUESDAYS, callback=bad,
                             after=1)
    manager.declare_temporal(
        "good", expression=TUESDAYS,
        callback=lambda _db, tick: fired["good"].append(tick), after=1)
    errors = []
    while clock.now < 31:
        try:
            cron.run_until(31)
        except Exception as exc:  # noqa: BLE001 - collected and checked
            errors.append(exc)
    assert fired == {"bad": TUESDAY_TICKS, "good": TUESDAY_TICKS}
    assert len(cron.sched) == 2
    assert _rule_time(db) == [("bad", 34), ("good", 34)]
    assert cron.stats.fires == 2 * len(TUESDAY_TICKS)
    # One error per wave, typed, with the callback's error as its cause.
    assert len(errors) == len(TUESDAY_TICKS)
    assert all(isinstance(exc, RuleError) for exc in errors)
    assert all(isinstance(exc.__cause__, RuntimeError) for exc in errors)


def test_repro_errors_are_raised_unwrapped(stack):
    _, _, manager, clock, pool = stack
    DBCron(manager, clock, period=7, pool=pool)

    def bad(_db, tick):
        raise RuleError("typed already")

    manager.declare_temporal("bad", expression=TUESDAYS, callback=bad,
                             after=1)
    with pytest.raises(RuleError, match="typed already"):
        manager.fire_temporal("bad", 6)
    assert manager.tables.next_fire_of("bad") == 13


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
def test_action_drops_a_later_rule_of_the_same_wave(stack, scheduler):
    _, db, manager, clock, pool = stack
    cron = _daemon(manager, clock, pool, scheduler)
    log = []

    def dropper(_db, tick):
        log.append(("first", tick))
        if "second" in manager.temporal_rules:
            manager.drop_rule("second")

    manager.declare_temporal("first", expression=TUESDAYS,
                             callback=dropper, after=1)
    manager.declare_temporal(
        "second", expression=TUESDAYS,
        callback=lambda _db, tick: log.append(("second", tick)), after=1)
    cron.run_until(20)
    assert log == [("first", 6), ("first", 13), ("first", 20)]
    assert _rule_time(db) == [("first", 27)]
    assert len(cron.sched) == 1


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
def test_callback_that_redeclares_itself_keeps_the_new_schedule(
        stack, scheduler):
    # The wave must not overwrite a redeclared rule's RULE_TIME row or
    # arm with the dropped incarnation's next trigger.
    registry, db, manager, clock, pool = stack
    registry.define("FRIDAYS_LATER", values=[(16, 16), (23, 23)],
                    granularity="DAYS")
    cron = _daemon(manager, clock, pool, scheduler)
    log = []

    def redeclare(_db, tick):
        log.append(("old", tick))
        manager.drop_rule("r")
        manager.declare_temporal(
            "r", expression="FRIDAYS_LATER",
            callback=lambda _db, t: log.append(("new", t)), after=tick)

    manager.declare_temporal("r", expression=TUESDAYS, callback=redeclare,
                             after=1)
    cron.run_until(6)
    assert _rule_time(db) == [("r", 16)]
    cron.run_until(30)
    assert log == [("old", 6), ("new", 16), ("new", 23)]


def test_catchup_latest_in_a_shared_wave(stack):
    # The wheel: a clock jump reaches every missed tick without probes.
    _, db, manager, clock, pool = stack
    DBCron(manager, clock, period=7, pool=pool)
    log = []
    for name, catchup in (("all", "all"), ("latest", "latest")):
        manager.declare_temporal(
            name, expression=TUESDAYS, catchup=catchup, after=1,
            callback=lambda _db, tick, n=name: log.append((n, tick)))
    clock.advance(21)  # one jump past the Tuesdays 6, 13 and 20
    assert log == [("all", 6), ("latest", 20), ("all", 13), ("all", 20)]
    assert _rule_time(db) == [("all", 27), ("latest", 27)]


def _session_run(workers: int, tracing: bool):
    """Fire order (from ``rule.fire`` events), fire counts, RULE_TIME."""
    session = Session("Jan 1 1987", workers=workers, telemetry=True,
                      instrumentation=Instrumentation(tracing=tracing),
                      clock_start=2200)
    # Two shards whatever the pool size, so both runs batch alike.
    session.cron.detach()
    session.cron = DBCron(session.manager, session.clock, pool=session.pool,
                          schedule=WheelSchedule(session.clock.now, shards=2))
    events = []
    session.telemetry.add_sink(CallbackSink(
        lambda event: events.append(
            (event.fields["tick"], event.fields["rule"],
             event.fields["next_fire"]))
        if event.kind == "rule.fire" else None))
    try:
        for i, expr in enumerate([TUESDAYS, TUESDAYS,
                                  "[5]/DAYS:during:WEEKS",
                                  "[1]/DAYS:during:MONTHS", TUESDAYS,
                                  "[15]/DAYS:during:MONTHS"]):
            session.rules.on_calendar(
                f"rule_{i}", expression=expr, callback=lambda d, t: None)
        session.cron.run_until(2200 + 120)
        counts = sorted((name, rule.fire_count) for name, rule in
                        session.manager.temporal_rules.items())
        return events, counts, _rule_time(session.db)
    finally:
        session.close()
        session.pool.close()


def test_parallel_waves_fire_like_sequential_ones():
    sequential = _session_run(workers=1, tracing=False)
    parallel = _session_run(workers=2, tracing=False)
    assert sequential[0], "the run fired nothing"
    assert parallel == sequential


def test_tracing_does_not_change_what_fires():
    assert _session_run(workers=1, tracing=True) == \
        _session_run(workers=1, tracing=False)
    assert _session_run(workers=2, tracing=True) == \
        _session_run(workers=1, tracing=False)


def test_fire_wave_reports_next_fires_in_entry_order(stack):
    _, db, manager, clock, pool = stack
    DBCron(manager, clock, period=7, pool=pool)
    for name in ("a", "b"):
        manager.declare_temporal(name, expression=TUESDAYS,
                                 callback=lambda d, t: None, after=1)
    assert manager.fire_wave([(6, "b"), (6, "ghost"), (6, "a")]) == \
        [13, None, 13]
    assert _rule_time(db) == [("a", 13), ("b", 13)]


def test_parallel_waves_lose_no_fire_under_thread_switching():
    # Pool workers write their fires' outcomes into one per-wave list
    # that the dispatching thread flushes; a lost write would leave a
    # rule unarmed or its RULE_TIME row stale.
    registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                default_horizon_years=3)
    db = Database(calendars=registry)
    manager = RuleManager(db)
    clock = SimulatedClock(now=1)
    pool = WorkerPool(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        cron = DBCron(manager, clock, period=7, pool=pool,
                      schedule=WheelSchedule(clock.now, shards=8))
        for i in range(120):
            manager.declare_temporal(f"r{i}", expression=TUESDAYS,
                                     callback=lambda d, t: None, after=1)
        deadline = time.monotonic() + 60
        cron.run_until(31)
        assert time.monotonic() < deadline
    finally:
        sys.setswitchinterval(interval)
        pool.close()
    assert cron.stats.fires == 120 * len(TUESDAY_TICKS)
    assert all(rule.fire_count == len(TUESDAY_TICKS)
               for rule in manager.temporal_rules.values())
    assert _rule_time(db) == sorted((f"r{i}", 34) for i in range(120))
    assert len(cron.sched) == 120
