"""Unit tests for the hierarchical timing wheel and its schedule.

Small slot geometries (e.g. ``(4, 4, 4)`` — capacity 64 ticks) make
cascade boundaries and overflow drains reachable in a handful of ticks;
the default geometry would need half a million.
"""

import pytest

from repro.catalog import CalendarRegistry
from repro.core import CalendarSystem
from repro.core.errors import AxisError
from repro.db import Database
from repro.rules import (
    DBCron,
    HeapSchedule,
    RuleManager,
    SimulatedClock,
    WheelSchedule,
)
from repro.rules.wheel import DEFAULT_SLOTS, HierarchicalWheel, _lin, _unlin

SMALL = (4, 4, 4)  # spans 1/4/16, capacity 64


def drain(wheel):
    """Every ripe (tick_lin, name) pair of one wheel, earliest first."""
    out = []
    while (tick := wheel.peek_tick()) is not None:
        out.extend((tick, name) for _, name, _ in wheel.take_tick(tick))
    return out


class TestLinearCoordinates:
    def test_axis_zero_is_skipped(self):
        # The axis has no tick 0: tick 1 maps to linear 0, tick -1 to -1.
        assert _lin(1) == 0
        assert _lin(-1) == -1
        assert _lin(2) == 1

    def test_roundtrip(self):
        for tick in [-5, -2, -1, 1, 2, 17, 400]:
            assert _unlin(_lin(tick)) == tick

    def test_linear_axis_is_contiguous(self):
        ticks = [-3, -2, -1, 1, 2, 3]
        lins = [_lin(t) for t in ticks]
        assert lins == list(range(-3, 3))


class TestHierarchicalWheel:
    def test_rejects_degenerate_geometry(self):
        with pytest.raises(AxisError):
            HierarchicalWheel(0, slots=(4,))
        with pytest.raises(AxisError):
            HierarchicalWheel(0, slots=(4, 1))

    def test_capacity_matches_geometry(self):
        wheel = HierarchicalWheel(0, slots=SMALL)
        assert wheel.capacity == 64
        assert HierarchicalWheel(0, slots=DEFAULT_SLOTS).capacity \
            == 512 * 64 * 64

    def test_push_at_or_before_cursor_is_immediately_ripe(self):
        wheel = HierarchicalWheel(10, slots=SMALL)
        wheel.push(10, 1, "now", 1)
        wheel.push(7, 2, "late", 2)
        assert wheel.peek_tick() == 7
        assert drain(wheel) == [(7, "late"), (10, "now")]

    def test_advance_ripens_in_tick_order(self):
        wheel = HierarchicalWheel(0, slots=SMALL)
        for seq, tick in enumerate([9, 2, 5, 13, 1], start=1):
            wheel.push(tick, seq, f"r{tick}", seq)
        wheel.advance_to(13)
        assert drain(wheel) == [(1, "r1"), (2, "r2"), (5, "r5"),
                                (9, "r9"), (13, "r13")]

    def test_cascade_fires_exactly_on_time(self):
        # Linear tick 5 starts in level 1 (delta 5 >= 4 level-0 slots);
        # the level-1 slot cascades when its window opens at tick 4 and
        # the entry must become ripe at 5, not at the cascade boundary.
        wheel = HierarchicalWheel(0, slots=SMALL)
        wheel.push(5, 1, "r", 1)
        wheel.advance_to(4)
        assert wheel.peek_tick() is None
        assert wheel.cascades >= 1
        wheel.advance_to(5)
        assert wheel.peek_tick() == 5

    def test_every_tick_across_all_levels_fires_on_time(self):
        # One entry per tick across the whole slotted range: each must
        # ripen exactly when the cursor reaches it, through however many
        # cascade hops its level requires.
        wheel = HierarchicalWheel(0, slots=SMALL)
        for tick in range(1, 64):
            wheel.push(tick, tick, f"r{tick}", tick)
        for tick in range(1, 64):
            wheel.advance_to(tick)
            assert wheel.take_tick(tick) == [(tick, f"r{tick}", tick)], \
                f"entry for tick {tick} not ripe on time"
            assert wheel.peek_tick() is None, \
                f"early ripening at tick {tick}"

    def test_far_future_goes_to_overflow_and_comes_back(self):
        wheel = HierarchicalWheel(0, slots=SMALL)
        wheel.push(100, 1, "far", 1)  # beyond capacity 64
        assert wheel.overflow_size == 1
        wheel.advance_to(99)
        assert wheel.overflow_size == 0  # drained into the slotted levels
        assert wheel.peek_tick() is None
        wheel.advance_to(100)
        assert drain(wheel) == [(100, "far")]

    def test_deep_overflow_survives_multiple_drains(self):
        wheel = HierarchicalWheel(0, slots=SMALL)
        wheel.push(500, 1, "deep", 1)
        wheel.advance_to(300)
        assert wheel.overflow_size == 1  # still out of range at 300
        wheel.advance_to(500)
        assert drain(wheel) == [(500, "deep")]


class TestWheelSchedule:
    def test_schedule_and_pop_single(self):
        sched = WheelSchedule(1, slots=SMALL)
        assert sched.schedule("r", 5)
        assert len(sched) == 1
        assert sched.pop_wave(4) == []
        assert sched.pop_wave(5) == [(5, "r")]
        assert len(sched) == 0

    def test_duplicate_arm_refused(self):
        sched = WheelSchedule(1, slots=SMALL)
        assert sched.schedule("r", 5)
        assert not sched.schedule("r", 5)

    def test_watermark_refuses_stale_rearm(self):
        # After popping tick 5, re-arms at or before 5 are the probe
        # racing an in-flight fire — refuse them (anti double-fire).
        sched = WheelSchedule(1, slots=SMALL)
        sched.schedule("r", 5)
        assert sched.pop_wave(5) == [(5, "r")]
        assert not sched.schedule("r", 5)
        assert not sched.schedule("r", 3)
        assert sched.schedule("r", 6)

    def test_repoint_kills_old_entry(self):
        # Redefining a rule re-arms it at a new tick; the wheel entry
        # for the old tick must die in place, and the graveyard tick
        # must not mask the live one in the same pop.
        sched = WheelSchedule(1, slots=SMALL)
        sched.schedule("r", 5)
        sched.schedule("r", 8)
        assert len(sched) == 1
        assert sched.pop_wave(10) == [(8, "r")]

    def test_cancel_forgets_rule_and_watermark(self):
        sched = WheelSchedule(1, slots=SMALL)
        sched.schedule("r", 5)
        assert sched.pop_wave(5) == [(5, "r")]
        sched.cancel("r")
        # A dropped-and-recreated rule starts fresh: the old watermark
        # must not refuse ticks the new incarnation legitimately owns.
        assert sched.schedule("r", 4)
        assert sched.pop_wave(5) == [(4, "r")]

    def test_wave_in_arm_order(self):
        sched = WheelSchedule(1, slots=SMALL)
        names = [f"rule-{i}" for i in range(12)]
        for name in names:
            assert sched.schedule(name, 7)
        assert sched.pop_wave(7) == [(7, name) for name in names]

    def test_due_within_counts_only_the_window(self):
        sched = WheelSchedule(1, slots=SMALL)
        sched.schedule("soon", 3)
        sched.schedule("later", 30)
        sched.schedule("far", 500)
        assert sched.due_within(1, 7) == 1
        assert sched.due_within(1, 40) == 2
        assert len(sched) == 3

    def test_overflow_visible_in_stats(self):
        sched = WheelSchedule(1, slots=SMALL)
        sched.schedule("far", 500)
        assert sched.overflow_size() == 1
        stats = sched.stats()
        assert stats["kind"] == "wheel"
        assert stats["scheduled"] == 1
        assert stats["overflow"] == 1
        assert stats["slots"] == list(SMALL)

    def test_negative_ticks_cross_the_axis_zero_skip(self):
        # Arm on both sides of the (nonexistent) tick 0: the linear
        # mapping must keep -1 and 1 adjacent, firing in axis order.
        sched = WheelSchedule(-3, slots=SMALL)
        for tick in (2, -1, 1, -2):
            assert sched.schedule(f"r{tick}", tick)
        fired = []
        for now in (-2, -1, 1, 2):
            fired.extend(sched.pop_wave(now))
        assert [tick for tick, _ in fired] == [-2, -1, 1, 2]


class TestHeapScheduleProtocol:
    """The fixed heap implements the same strategy contract."""

    def test_repoint_kills_old_entry(self):
        sched = HeapSchedule()
        sched.schedule("r", 5)
        sched.schedule("r", 8)
        assert len(sched) == 1
        assert sched.pop_wave(10) == [(8, "r")]

    def test_watermark_refuses_stale_rearm(self):
        sched = HeapSchedule()
        sched.schedule("r", 5)
        assert sched.pop_wave(5) == [(5, "r")]
        assert not sched.schedule("r", 5)
        assert sched.schedule("r", 6)

    def test_stats_shape(self):
        sched = HeapSchedule()
        sched.schedule("r", 5)
        stats = sched.stats()
        assert stats["kind"] == "heap"
        assert stats["scheduled"] == 1


# -- daemon integration -------------------------------------------------------


def make_schedule(kind):
    """The heap oracle for ``"heap"``; None (the default wheel) else."""
    return HeapSchedule() if kind == "heap" else None


@pytest.fixture()
def stack():
    registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                default_horizon_years=3)
    db = Database(calendars=registry)
    manager = RuleManager(db)
    clock = SimulatedClock(now=1)
    return registry, db, manager, clock


class TestWheelDaemon:
    def test_wheel_is_the_default_scheduler(self, stack):
        _, _, manager, clock = stack
        cron = DBCron(manager, clock, period=7)
        assert cron.sched.kind == "wheel"
        assert isinstance(cron.sched, WheelSchedule)

    def test_rules_declared_before_daemon_are_synced(self, stack):
        # Wheel mode has no periodic RULE_TIME probe: rules that predate
        # the daemon must be armed by the one-time construction sync.
        registry, _, manager, clock = stack
        registry.define("EARLY", values=[(5, 5), (9, 9)],
                        granularity="DAYS")
        fired = []
        manager.declare_temporal(
            "early", expression="EARLY",
            callback=lambda d, t: fired.append(t), after=1)
        cron = DBCron(manager, clock, period=7)
        cron.run_until(12)
        assert fired == [5, 9]

    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_no_double_fire_when_probe_races_a_fire(self, stack,
                                                    scheduler):
        # Regression (IMPLEMENTATION_NOTES §11): a probe running while a
        # fire is in flight reads the rule's *old* RULE_TIME row (the
        # next-fire update lands after the action) and re-arms the tick
        # being fired.  The fired-at watermark must refuse that re-arm;
        # the stale entry used to fire the same occurrence twice.
        registry, _, manager, clock = stack
        registry.define("SPARSE", values=[(4, 4), (300, 300)],
                        granularity="DAYS")
        cron = DBCron(manager, clock, period=7,
                      schedule=make_schedule(scheduler))
        fired = []

        def racing_callback(_db, tick):
            fired.append(tick)
            cron.probe()  # the daemon probing mid-fire

        manager.declare_temporal("r", expression="SPARSE",
                                 callback=racing_callback, after=1)
        cron.run_until(10)
        assert fired == [4], f"double fire under {scheduler}: {fired}"

    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_redefine_between_probe_and_fire(self, stack, scheduler):
        # Dropping and redefining a loaded rule must kill the original
        # schedule entry: only the new calendar's ticks fire.
        registry, _, manager, clock = stack
        registry.define("OLD", values=[(5, 5)], granularity="DAYS")
        registry.define("NEW", values=[(6, 6)], granularity="DAYS")
        cron = DBCron(manager, clock, period=7,
                      schedule=make_schedule(scheduler))
        fired = []
        manager.declare_temporal(
            "r", expression="OLD",
            callback=lambda d, t: fired.append(("old", t)), after=1)
        cron.probe()  # loads the OLD entry into the schedule
        manager.drop_rule("r")
        manager.declare_temporal(
            "r", expression="NEW",
            callback=lambda d, t: fired.append(("new", t)), after=1)
        cron.run_until(10)
        assert fired == [("new", 6)]

    def test_wheel_and_heap_fire_identically(self, stack):
        registry, _, _, _ = stack
        registry.define("MIX", values=[(d, d) for d in
                                       (3, 4, 4 + 40, 200)],
                        granularity="DAYS")
        runs = {}
        for scheduler in ("heap", "wheel"):
            db = Database(calendars=registry)
            manager = RuleManager(db)
            clock = SimulatedClock(now=1)
            cron = DBCron(manager, clock, period=7,
                          schedule=make_schedule(scheduler))
            fired = []
            manager.declare_temporal(
                "m", expression="MIX",
                callback=lambda d, t: fired.append(t), after=1)
            cron.run_until(250)
            runs[scheduler] = fired
        assert runs["wheel"] == runs["heap"] == [3, 4, 44, 200]


class TestProbeReport:
    def test_probe_matches_a_brute_force_count_of_rule_time(self, stack):
        # The wheel answers the probe from its tick counts; the count
        # must equal a scan of every rule's stored next fire.
        registry, _, manager, clock = stack
        for i in range(12):
            registry.define(f"C{i}", values=[(d, d) for d in
                                             (3 + i, 9 + 2 * i, 40 + i)],
                            granularity="DAYS")
        cron = DBCron(manager, clock, period=7)
        for i in range(12):
            manager.declare_temporal(f"r{i}", expression=f"C{i}",
                                     callback=lambda d, t: None, after=1)
        for until in (1, 8, 15, 30):
            cron.run_until(until)
            loaded = cron.probe()
            bound = clock.now + cron.period
            stored = manager.tables.all_next_fires()
            assert loaded == sum(1 for _, tick in stored if tick <= bound)
