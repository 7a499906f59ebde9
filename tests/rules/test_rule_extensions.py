"""Tests for rule lifespans, catch-up policies and the wall clock."""

import pytest

from repro.core import AxisError, CalendarSystem
from repro.db import Database, RuleError
from repro.rules import (
    DBCron,
    RuleManager,
    SimulatedClock,
    TemporalRule,
    WallClock,
)


class TestTemporalRuleLifespan:
    def test_rule_only_fires_inside_lifespan(self, ruled_db):
        db, manager, clock, cron = ruled_db
        fired = []
        lo = db.system.day_of("Jan 11 1993")
        hi = db.system.day_of("Jan 31 1993")
        manager.declare_temporal(
            "windowed", expression="[2]/DAYS:during:WEEKS",
            callback=lambda d, t: fired.append(t),
            after=clock.now, valid_between=(lo, hi))
        cron.run_until(db.system.day_of("Mar 15 1993"))
        dates = [str(db.system.date_of(t)) for t in fired]
        assert dates == ["Jan 12 1993", "Jan 19 1993", "Jan 26 1993"]

    def test_rule_defined_before_lifespan_waits(self, ruled_db):
        db, manager, clock, cron = ruled_db
        lo = db.system.day_of("Feb 1 1993")
        hi = db.system.day_of("Feb 28 1993")
        rule = manager.declare_temporal(
            "later", expression="[2]/DAYS:during:WEEKS",
            callback=lambda d, t: None,
            after=clock.now, valid_between=(lo, hi))
        first = manager.tables.next_fire_of("later")
        assert first >= lo

    def test_expired_rule_unscheduled(self, ruled_db):
        db, manager, clock, cron = ruled_db
        lo = db.system.day_of("Jan 4 1993")
        hi = db.system.day_of("Jan 15 1993")
        manager.declare_temporal(
            "short", expression="[2]/DAYS:during:WEEKS",
            callback=lambda d, t: None,
            after=clock.now, valid_between=(lo, hi))
        cron.run_until(db.system.day_of("Feb 15 1993"))
        assert manager.tables.next_fire_of("short") is None

    def test_inverted_lifespan_rejected(self, db):
        with pytest.raises(RuleError):
            TemporalRule.define("bad", "DAYS", db.calendars,
                                callback=lambda d, t: None,
                                valid_between=(100, 10))

    def test_bad_catchup_policy_rejected(self, db):
        with pytest.raises(RuleError):
            TemporalRule.define("bad", "DAYS", db.calendars,
                                callback=lambda d, t: None,
                                catchup="sometimes")


class TestCatchupPolicies:
    def _run(self, db, policy):
        manager = RuleManager(db)
        clock = SimulatedClock(now=db.system.day_of("Jan 1 1993"))
        cron = DBCron(manager, clock, period=7)
        fired = []
        manager.declare_temporal(
            "daily", expression="DAYS", callback=lambda d, t: fired.append(t),
            after=clock.now, catchup=policy)
        cron.probe()
        # Jump the clock a month in one step: many missed daily points.
        # A daemon waking late re-probes, then drains the schedule.
        clock.advance(30)
        cron.probe()
        cron.fire_due()
        return fired, clock

    def test_all_fires_every_missed_point(self, registry):
        db = Database(calendars=registry)
        fired, clock = self._run(db, "all")
        assert len(fired) == 30

    def test_latest_fires_only_most_recent(self, registry):
        db = Database(calendars=registry)
        fired, clock = self._run(db, "latest")
        assert len(fired) == 1
        assert fired[0] == clock.now

    def test_latest_still_fires_on_time_normally(self, registry):
        db = Database(calendars=registry)
        manager = RuleManager(db)
        clock = SimulatedClock(now=db.system.day_of("Jan 1 1993"))
        cron = DBCron(manager, clock, period=1)
        fired = []
        manager.declare_temporal(
            "weekly", expression="[2]/DAYS:during:WEEKS",
            callback=lambda d, t: fired.append(t),
            after=clock.now, catchup="latest")
        cron.run_until(db.system.day_of("Feb 1 1993"))
        assert len(fired) == 4  # every Tuesday, none skipped


class TestEventRuleLifespan:
    def test_event_rule_respects_lifespan(self, ruled_db):
        db, manager, clock, cron = ruled_db
        db.create_table("src3", [("x", "int4")])
        fired = []
        lo = clock.now + 10
        hi = clock.now + 20
        manager.declare_event(
            "gated", event="append", relation="src3",
            callback=lambda d, e: fired.append(clock.now),
            valid_between=(lo, hi))
        db.insert("src3", x=1)           # before activation
        clock.advance(15)
        db.insert("src3", x=2)           # inside
        clock.advance(15)
        db.insert("src3", x=3)           # after expiry
        assert len(fired) == 1

    def test_no_clock_means_always_active(self, db):
        manager = RuleManager(db)
        db.create_table("src4", [("x", "int4")])
        fired = []
        manager.declare_event(
            "ungated", event="append", relation="src4",
            callback=lambda d, e: fired.append(1),
            valid_between=(100, 200))
        db.insert("src4", x=1)
        assert fired == [1]  # no clock attached -> lifespan not enforced


class TestWallClock:
    def make(self, start_seconds=760_000_000.0):
        state = {"t": start_seconds}
        system = CalendarSystem.starting("Jan 1 1987")
        clock = WallClock(system, time_source=lambda: state["t"])
        return clock, state, system

    def test_now_matches_chronology(self):
        clock, state, system = self.make()
        # 760000000 s / 86400 = day 8796 since 1970-01-01 = Jan 31 1994.
        assert str(system.date_of(clock.now)) == "Jan 31 1994"

    def test_poll_advances_on_day_boundary(self):
        clock, state, system = self.make()
        before = clock.now
        state["t"] += 3600            # one hour: same day
        assert clock.poll() is False
        state["t"] += 86_400          # next day
        assert clock.poll() is True
        assert clock.now == before + 1

    def test_listeners_notified(self):
        clock, state, _ = self.make()
        seen = []
        clock.subscribe(seen.append)
        state["t"] += 2 * 86_400
        clock.poll()
        assert seen == [clock.now]

    def test_backwards_time_rejected(self):
        clock, state, _ = self.make()
        state["t"] -= 10 * 86_400
        with pytest.raises(AxisError):
            clock.poll()

    def test_manual_advance_rejected(self):
        clock, _, _ = self.make()
        with pytest.raises(AxisError):
            clock.advance(1)

    def test_drives_dbcron(self, registry):
        db = Database(calendars=registry)
        manager = RuleManager(db)
        state = {"t": 760_000_000.0}
        clock = WallClock(db.system, time_source=lambda: state["t"])
        cron = DBCron(manager, clock, period=1)
        fired = []
        manager.declare_temporal(
            "daily", expression="DAYS", callback=lambda d, t: fired.append(t),
            after=clock.now)
        cron.probe()
        for _ in range(5):
            state["t"] += 86_400
            clock.poll()
            cron.probe()
        assert len(fired) == 5
