"""E9: the DBCRON daemon (Figure 4) end to end."""

import datetime

import pytest

from repro.core import AxisError
from repro.db.errors import ExecutionError
from repro.rules import DBCron, HeapSchedule, RuleManager, SimulatedClock
from repro.session import Session


def tuesdays_between(start: datetime.date, end: datetime.date):
    d = start
    while d <= end:
        if d.isoweekday() == 2:
            yield d
        d += datetime.timedelta(days=1)


class TestEveryTuesday:
    """The paper's 'On Every Tuesday do Proc_X'."""

    def test_fires_on_every_tuesday(self, ruled_db):
        db, manager, clock, cron = ruled_db
        fired = []
        manager.declare_temporal(
            "every_tuesday", expression="[2]/DAYS:during:WEEKS",
            callback=lambda d, t: fired.append(t), after=clock.now)
        cron.run_until(db.system.day_of("Mar 1 1993"))
        got = [db.system.date_of(t) for t in fired]
        expected = list(tuesdays_between(datetime.date(1993, 1, 2),
                                         datetime.date(1993, 3, 1)))
        assert [(g.year, g.month, g.day) for g in got] == \
            [(e.year, e.month, e.day) for e in expected]

    def test_never_fires_early(self, ruled_db):
        db, manager, clock, cron = ruled_db
        fired = []
        manager.declare_temporal(
            "every_tuesday", expression="[2]/DAYS:during:WEEKS",
            callback=lambda d, t: fired.append((t, clock.now)),
            after=clock.now)
        cron.run_until(db.system.day_of("Feb 1 1993"))
        assert all(fire_tick <= now for fire_tick, now in fired)

    def test_rule_time_points_ahead_after_run(self, ruled_db):
        db, manager, clock, cron = ruled_db
        manager.declare_temporal(
            "every_tuesday", expression="[2]/DAYS:during:WEEKS",
            callback=lambda d, t: None, after=clock.now)
        cron.run_until(db.system.day_of("Feb 1 1993"))
        next_fire = manager.tables.next_fire_of("every_tuesday")
        assert next_fire > clock.now - cron.period


class TestFarFutureRule:
    """A compiled rule whose first point lies decades ahead is armed."""

    @pytest.mark.parametrize("scheduler", ["wheel", "heap"])
    def test_armed_for_2016_and_fires_there(self, db, scheduler):
        manager = RuleManager(db)
        clock = SimulatedClock(now=db.system.day_of("Jan 1 1993"))
        cron = DBCron(manager, clock, period=7,
                      schedule=HeapSchedule() if scheduler == "heap"
                      else None)
        fired = []
        manager.declare_temporal(
            "far", expression="[1]/DAYS:during:WEEKS:during:2016/YEARS",
            callback=lambda d, t: fired.append(t), after=clock.now)
        # The first Monday of a week wholly inside 2016.
        first = db.system.day_of("Jan 4 2016")
        rows = db.execute("retrieve (r.rulename, r.next_fire) "
                          "from r in rule_time").rows
        assert [(r["rulename"], r["next_fire"]) for r in rows] == \
            [("far", first)]
        cron.run_until(first - 1)
        assert fired == []
        cron.run_until(first)
        assert fired == [first]
        assert manager.tables.next_fire_of("far") == first + 7


class TestDaemonMechanics:
    def test_probe_loads_due_rules(self, ruled_db):
        db, manager, clock, cron = ruled_db
        db.calendars.define("soon", values=[(clock.now + 3, clock.now + 3)],
                            granularity="DAYS")
        manager.declare_temporal("r", expression="SOON",
                                 callback=lambda d, t: None,
                                 after=clock.now)
        loaded = cron.probe()
        assert loaded == 1

    def test_rules_beyond_horizon_not_loaded(self, ruled_db):
        db, manager, clock, cron = ruled_db
        db.calendars.define("later",
                            values=[(clock.now + 100, clock.now + 100)],
                            granularity="DAYS")
        manager.declare_temporal("r", expression="LATER",
                                 callback=lambda d, t: None,
                                 after=clock.now)
        assert cron.probe() == 0

    def test_multiple_rules_fire_in_time_order(self, ruled_db):
        db, manager, clock, cron = ruled_db
        order = []
        db.calendars.define("day3", values=[(clock.now + 3, clock.now + 3)],
                            granularity="DAYS")
        db.calendars.define("day2", values=[(clock.now + 2, clock.now + 2)],
                            granularity="DAYS")
        manager.declare_temporal(
            "late", expression="DAY3",
            callback=lambda d, t: order.append("late"), after=clock.now)
        manager.declare_temporal(
            "early", expression="DAY2",
            callback=lambda d, t: order.append("early"), after=clock.now)
        cron.run_until(clock.now + 10)
        assert order == ["early", "late"]

    def test_catchup_fires_all_missed_points(self, ruled_db):
        db, manager, clock, cron = ruled_db
        fired = []
        manager.declare_temporal(
            "daily", expression="DAYS", callback=lambda d, t: fired.append(t),
            after=clock.now)
        # Jump a month in a single probe-period-sized series of steps.
        cron.run_until(clock.now + 28)
        assert len(fired) == 28

    def test_dropped_rule_never_fires(self, ruled_db):
        db, manager, clock, cron = ruled_db
        fired = []
        manager.declare_temporal(
            "every_tuesday", expression="[2]/DAYS:during:WEEKS",
            callback=lambda d, t: fired.append(t), after=clock.now)
        cron.probe()
        manager.drop_rule("every_tuesday")
        cron.run_until(clock.now + 30)
        assert fired == []

    def test_rule_defined_mid_run_is_picked_up(self, ruled_db):
        db, manager, clock, cron = ruled_db
        fired = []
        cron.run_until(clock.now + 5)
        manager.declare_temporal(
            "every_tuesday", expression="[2]/DAYS:during:WEEKS",
            callback=lambda d, t: fired.append(t), after=clock.now)
        cron.run_until(clock.now + 21)
        assert len(fired) == 3

    def test_stats_accumulate(self, ruled_db):
        db, manager, clock, cron = ruled_db
        manager.declare_temporal(
            "every_tuesday", expression="[2]/DAYS:during:WEEKS",
            callback=lambda d, t: None, after=clock.now)
        cron.run_until(clock.now + 28)
        assert cron.stats.fires == 4
        assert cron.stats.probes >= 4
        assert cron.stats.max_heap_size >= 1

    def test_bad_period_rejected(self, ruled_db):
        db, manager, clock, _ = ruled_db
        with pytest.raises(AxisError):
            DBCron(manager, clock, period=0)

    def test_probe_period_does_not_change_fire_days(self, db):
        """Firing days are a property of the calendar, not of T."""
        results = {}
        for period in (1, 7, 30):
            manager = RuleManager.__new__(RuleManager)  # fresh manager
            from repro.db import Database
            fresh = Database(calendars=db.calendars)
            manager = RuleManager(fresh)
            clock = SimulatedClock(now=fresh.system.day_of("Jan 1 1993"))
            cron = DBCron(manager, clock, period=period)
            fired = []
            manager.declare_temporal(
                "t", expression="[2]/DAYS:during:WEEKS",
                callback=lambda d, t: fired.append(t), after=clock.now)
            cron.run_until(fresh.system.day_of("Feb 15 1993"))
            results[period] = fired
        assert results[1] == results[7] == results[30]


#: The expression shapes of the benchmark's DBCRON workload: weekday
#: patterns, business-day selections, holiday differences and shapes
#: the periodic compiler declines.
RULE_TIME_MIX = (
    "[1]/DAYS:during:WEEKS", "[3]/DAYS:during:WEEKS",
    "[1-5]/DAYS:during:WEEKS", "[6-7]/DAYS:during:WEEKS",
    "[1]/AM_BUS_DAYS:during:MONTHS", "[n]/AM_BUS_DAYS:during:MONTHS",
    "[5]/AM_BUS_DAYS:during:WEEKS", "([2]/DAYS:during:WEEKS) - HOLIDAYS",
    "AM_BUS_DAYS - HOLIDAYS", "[n]/AM_BUS_DAYS:<:[3]/DAYS:during:WEEKS",
    "[2]/DAYS:during:WEEKS:during:DECADES", "[n]/AM_BUS_DAYS:<:LDOM",
)


class TestRuleTimeKeepsNoHistory:
    """RULE_TIME is DBCRON's probe table: every fire rewrites a row in
    place, so it holds exactly one version per armed rule however long
    the daemon runs."""

    @pytest.fixture(scope="class")
    def fired_session(self):
        session = Session("Jan 1 1987", holiday_years=(1987, 1989))
        start = session.system.day_of("Jan 1 1988")
        session.clock.advance(start - session.clock.now)
        session.db.create_table("fire_log", [("rule", "text"),
                                             ("t", "abstime")])
        for i in range(200):
            expression = RULE_TIME_MIX[i % len(RULE_TIME_MIX)]
            name = f"r{i}"
            if i % 5 == 0:
                session.rules.on_calendar(
                    name, expression=expression,
                    do=[f'append fire_log (rule = "{name}", t = now.t)'])
            else:
                session.rules.on_calendar(name, expression=expression,
                                          callback=lambda db, t: None)
        xact = session.db.current_xact()
        fires = session.cron.run_until(start + 200)
        yield session, fires, xact
        session.close()

    def test_one_version_per_live_row(self, fired_session):
        session, fires, _ = fired_session
        rule_time = session.db.relation("rule_time")
        assert fires > 10 * len(rule_time) > 0
        assert rule_time.version_count() == len(rule_time) == 200

    def test_vacuum_reclaims_nothing_from_rule_time(self, fired_session):
        session, _, _ = fired_session
        rule_time = session.db.relation("rule_time")
        rows = sorted((row["rulename"], row["next_fire"])
                      for row in rule_time.scan())
        versions = rule_time.version_count()
        session.db.vacuum()
        assert rule_time.version_count() == versions
        assert sorted((row["rulename"], row["next_fire"])
                      for row in rule_time.scan()) == rows

    def test_as_of_raises_a_typed_error(self, fired_session):
        session, _, xact = fired_session
        with pytest.raises(ExecutionError,
                           match="'rule_time' keeps no history"):
            session.db.execute(
                f"retrieve (r.rulename) from r in rule_time as of {xact}")

    def test_postquel_writes_overwrite_in_place(self, ruled_db):
        db, manager, clock, _ = ruled_db
        for name in ("a", "b"):
            manager.declare_temporal(name, expression="[2]/DAYS:during:WEEKS",
                                     callback=lambda d, t: None)
        tables, rule_time = manager.tables, db.relation("rule_time")
        tid = rule_time.tid_of(("a",))
        db.execute('replace r (next_fire = 99999) from r in rule_time '
                   'where r.rulename = "a"')
        assert tables.next_fire_of("a") == 99999
        assert rule_time.tid_of(("a",)) == tid
        db.execute('replace r (rulename = "a2") from r in rule_time '
                   'where r.rulename = "a"')
        assert tables.next_fire_of("a") is None
        assert tables.next_fire_of("a2") == 99999
        db.execute('delete r from r in rule_time where r.rulename = "a2"')
        assert tables.next_fire_of("a2") is None
        assert rule_time.version_count() == len(rule_time) == 1
