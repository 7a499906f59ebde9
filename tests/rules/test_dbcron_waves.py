"""Same-tick DBCRON waves: one daemon, one thread, arm order.

Rules due at the *same* fire tick form a wave.  The daemon pops the
wave whole and fires its rules one by one on the thread that drives it
(``run_until``/``fire_due``), in arm order, as the single daemon of the
paper's Figure 4.  These tests pin that under both schedules — the
default timing wheel and its heap oracle — along with the per-fire
metrics and spans the daemon records around each fire.
"""

import threading

import pytest

from repro.catalog import CalendarRegistry
from repro.core import CalendarSystem
from repro.db import Database
from repro.obs.instrument import Instrumentation
from repro.rules import (
    DBCron,
    HeapSchedule,
    RuleManager,
    SimulatedClock,
    WheelSchedule,
)

TUESDAYS = "[2]/DAYS:during:WEEKS"
#: Jan 1 1987 (tick 1) is a Thursday: Tuesdays are ticks 6, 13, 20, 27.
TUESDAY_TICKS = [6, 13, 20, 27]
SCHEDULERS = ["heap", "wheel"]


def _stack(scheduler, instrumentation=None):
    """(db, manager, clock, cron) on a fresh database and registry."""
    registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                default_horizon_years=3,
                                instrumentation=instrumentation)
    db = Database(calendars=registry)
    manager = RuleManager(db)
    clock = SimulatedClock(now=1)
    cron = DBCron(manager, clock, period=7,
                  schedule=HeapSchedule() if scheduler == "heap" else None)
    return db, manager, clock, cron


def _declare(manager, names, log, expression=TUESDAYS):
    for name in names:
        manager.declare_temporal(
            name, expression=expression, after=1,
            callback=lambda _db, tick, n=name: log.append(
                (n, tick, threading.get_ident())))


class TestSameTickWave:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_same_tick_rules_all_fire_once(self, scheduler):
        _, manager, _, cron = _stack(scheduler)
        log = []
        names = [f"tue_{i}" for i in range(6)]
        _declare(manager, names, log)
        cron.run_until(27)
        by_rule = {}
        for name, tick, _ in log:
            by_rule.setdefault(name, []).append(tick)
        # Every rule fired once on each Tuesday, and on nothing else.
        assert by_rule == {name: TUESDAY_TICKS for name in names}
        assert cron.stats.fires == 6 * len(TUESDAY_TICKS)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_wave_fires_on_the_driving_thread(self, scheduler):
        _, manager, _, cron = _stack(scheduler)
        log = []
        _declare(manager, [f"r{i}" for i in range(4)], log)
        cron.run_until(13)
        assert len(log) == 8
        assert {ident for _, _, ident in log} == {threading.get_ident()}

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_wave_fires_in_arm_order_every_tick(self, scheduler):
        # Names deliberately out of sort order.  The wheel is armed at
        # declaration, so its waves follow declaration order; the heap
        # is armed by its RULE_TIME probe, which loads a window sorted
        # by (tick, name).  Re-arming a fired wave keeps either order.
        _, manager, _, cron = _stack(scheduler)
        log = []
        names = ["m", "c", "x", "a", "q"]
        _declare(manager, names, log)
        cron.run_until(27)
        order = sorted(names) if scheduler == "heap" else names
        assert [(name, tick) for name, tick, _ in log] == [
            (name, tick) for tick in TUESDAY_TICKS for name in order]

    def test_heap_and_wheel_fire_the_same_sequence(self):
        # Four calendars, some sharing ticks (a month first that is also
        # a Tuesday): the full (rule, tick) sequence matches, in order.
        exprs = ["[2]/DAYS:during:WEEKS", "[5]/DAYS:during:WEEKS",
                 "[1]/DAYS:during:MONTHS", "[15]/DAYS:during:MONTHS"]
        runs = {}
        for scheduler in SCHEDULERS:
            _, manager, _, cron = _stack(scheduler)
            log = []
            for i, expr in enumerate(exprs):
                _declare(manager, [f"rule_{i}"], log, expression=expr)
            cron.run_until(120)
            runs[scheduler] = [(name, tick) for name, tick, _ in log]
        assert runs["heap"], "the run fired nothing"
        assert runs["wheel"] == runs["heap"]
        ticks = [tick for _, tick in runs["wheel"]]
        assert ticks == sorted(ticks)


class TestPopWave:
    @pytest.mark.parametrize("schedule", [HeapSchedule, WheelSchedule],
                             ids=SCHEDULERS)
    def test_pop_wave_yields_tick_name_pairs(self, schedule):
        sched = HeapSchedule() if schedule is HeapSchedule \
            else WheelSchedule(1)
        for name in ("b", "a", "c"):
            assert sched.schedule(name, 5)
        assert sched.schedule("later", 9)
        # Only the earliest due tick, in arm order, as (tick, name).
        assert sched.pop_wave(10) == [(5, "b"), (5, "a"), (5, "c")]
        assert sched.pop_wave(10) == [(9, "later")]
        assert sched.pop_wave(10) == []

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_schedule_stats_carry_no_shard_fields(self, scheduler):
        _, manager, _, cron = _stack(scheduler)
        _declare(manager, ["r"], [])
        cron.probe()  # the heap is armed only by a probe
        stats = cron.sched.stats()
        assert stats["kind"] == scheduler
        assert stats["scheduled"] == 1
        assert not any("shard" in key for key in stats)


class TestFireMetricsAndSpans:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_fire_seconds_counted_per_fire(self, scheduler):
        inst = Instrumentation()
        _, manager, _, cron = _stack(scheduler, instrumentation=inst)
        log = []
        _declare(manager, [f"m{i}" for i in range(3)], log)
        cron.run_until(27)
        assert len(log) == 3 * len(TUESDAY_TICKS)
        snap = inst.metrics.snapshot()
        assert snap["dbcron.fires"] == len(log)
        assert snap["dbcron.fire_seconds"]["count"] == len(log)

    def test_wheel_probe_publishes_no_per_shard_series(self):
        inst = Instrumentation()
        _, manager, _, cron = _stack("wheel", instrumentation=inst)
        _declare(manager, ["a", "b"], [])
        cron.run_until(13)
        snap = inst.metrics.snapshot()
        assert "dbcron.wheel.cascades" in snap
        assert "dbcron.wheel.overflow" in snap
        assert not [key for key in snap if "shard" in key]

    def test_traced_wave_groups_its_fires_in_one_wave_span(self):
        inst = Instrumentation()
        inst.tracing = True
        _, manager, _, cron = _stack("wheel", instrumentation=inst)
        names = ["a", "b", "c"]
        _declare(manager, names, [])
        cron.run_until(13)
        roots = inst.recent_traces()
        # Each wave is one root span around its rule.fire spans; each
        # fire carries its rule, tick and the next fire it armed.  The
        # first wave fires late: one clock step ran from tick 1 to 8.
        waves = [root for root in roots if root.name == "dbcron.wave"]
        assert [(w.meta["tick"], w.meta["rules"], w.meta["drift"])
                for w in waves] == [(6, 3, 2), (13, 3, 0)]
        for wave, tick in zip(waves, (6, 13)):
            assert [(s.name, s.meta["rule"], s.meta["tick"],
                     s.meta["next_fire"]) for s in wave.children] == [
                ("rule.fire", name, tick, tick + 7) for name in names]
        # The daemon's probes are point events between the waves.
        probes = [root for root in roots if root.name == "dbcron.probe"]
        assert [p.meta["now"] for p in probes] == [1, 8, 13]
        assert all(p.meta["scheduler"] == "wheel" and p.duration == 0.0
                   for p in probes)
