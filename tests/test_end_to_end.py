"""End-to-end scenario: a trading back office, every subsystem at once.

Exercises, in a single flow: the CALENDARS catalog, calendar scripts,
option-expiration procedures, Postquel DDL/DML, event rules, temporal
rules driven by DBCRON, regular time series with pattern-triggered
rules, transaction-time history, and JSON persistence.
"""

import pytest

from repro.catalog import (
    CalendarRegistry,
    install_standard_calendars,
    install_us_holidays,
)
from repro.core import Calendar, CalendarSystem
from repro.db import Database
from repro.db.persist import load_database, save_database
from repro.finance import EXPIRATION_SCRIPT, expiration_calendar
from repro.rules import DBCron, RuleManager, SimulatedClock
from repro.timeseries import RegularTimeSeries, register_series


@pytest.fixture(scope="module")
def office():
    registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                default_horizon_years=15)
    install_standard_calendars(registry)
    install_us_holidays(registry, 1987, 2001)
    db = Database(calendars=registry)
    system = db.system
    manager = RuleManager(db)
    clock = SimulatedClock(now=system.day_of("Nov 1 1993"))
    cron = DBCron(manager, clock, period=1)

    # Schema, via the query language only.
    db.execute("create table positions (symbol text, qty int4, "
               "strike float8, expiry abstime) valid time expiry")
    db.execute("create table alerts (day abstime, message text)")
    db.execute("create index on positions (symbol)")

    # Catalog: expirations for 1993 + a rolled settlement calendar.
    registry.define("EXPIRATIONS_93",
                    values=expiration_calendar(registry, 1993),
                    granularity="DAYS")
    registry.define_procedure("expiration", ["Expiration-Month"],
                              EXPIRATION_SCRIPT)

    # Market data series for pattern triggers.
    base = system.day_of("Nov 1 1993")
    days = Calendar.from_intervals([(base + i, base + i)
                                    for i in range(20)])
    closes = [460 + (i % 5) - (i % 7) + i * 0.3 for i in range(20)]
    register_series(registry, RegularTimeSeries(days, closes,
                                                name="spx"))
    return db, manager, clock, cron


class TestTradingBackOffice:
    def test_01_positions_and_event_rule(self, office):
        db, manager, clock, cron = office
        manager.declare_event(
            "big_position_audit", event="append", relation="positions",
            condition="new.qty > 100",
            actions=['append alerts (day = new.expiry, '
                     'message = "big position " || new.symbol)'])
        nov_exp = db.calendars.next_occurrence("EXPIRATIONS_93",
                                               clock.now)
        db.execute(f'append positions (symbol = "SPX", qty = 150, '
                   f'strike = 465.0, expiry = {nov_exp})')
        db.execute(f'append positions (symbol = "OEX", qty = 10, '
                   f'strike = 430.0, expiry = {nov_exp})')
        alerts = db.execute("retrieve (a.message) from a in alerts")
        assert alerts.column("message") == ["big position SPX"]

    def test_02_positions_queryable_on_expiration_calendar(self, office):
        db, *_ = office
        result = db.execute(
            "retrieve (p.symbol) from p in positions "
            "on EXPIRATIONS_93 order by symbol")
        assert result.column("symbol") == ["OEX", "SPX"]

    def test_03_temporal_rules_fire_through_november(self, office):
        db, manager, clock, cron = office
        manager.declare_temporal(
            "expiry_alert", expression="EXPIRATIONS_93",
            actions=['append alerts (day = now.t, '
                     'message = "expiration " || now.text)'],
            after=clock.now)
        manager.declare_temporal(
            "uptick", expression='pattern("spx", "s(t) < s(t+1) and '
                      's(t+1) < s(t+2)")',
            actions=['append alerts (day = now.t, '
                     'message = "momentum")'],
            after=clock.now)
        cron.run_until(db.system.day_of("Dec 1 1993"))
        messages = db.execute(
            "retrieve (a.message) from a in alerts").column("message")
        assert "expiration Nov 19 1993" in messages
        assert "momentum" in messages

    def test_04_history_shows_prior_state(self, office):
        db, *_ = office
        before = db.current_xact()
        db.execute('replace p (qty = 0) from p in positions '
                   'where p.symbol = "SPX"')
        now_qty = db.execute(
            'retrieve (p.qty) from p in positions '
            'where p.symbol = "SPX"').rows[0]["qty"]
        old_qty = db.execute(
            f'retrieve (p.qty) from p in positions as of {before} '
            'where p.symbol = "SPX"').rows[0]["qty"]
        assert (now_qty, old_qty) == (0, 150)

    def test_05_procedure_matches_stored_calendar(self, office):
        db, *_ = office
        registry = db.calendars
        via_procedure = registry.eval_expression(
            "expiration([11]/MONTHS:during:1993/YEARS)")
        stored = registry.evaluate("EXPIRATIONS_93")
        assert via_procedure.elements[0] in stored.elements

    def test_06_persistence_roundtrip(self, office, tmp_path):
        db, *_ = office
        path = tmp_path / "office.json"
        report = save_database(db, str(path))
        assert report.relations >= 2
        assert report.temporal_rules >= 1
        loaded = load_database(str(path))
        assert loaded.execute(
            "retrieve (count()) from p in positions").rows[0]["count()"] \
            == 2
        # The reloaded catalog still evaluates the expiration calendar.
        cal = loaded.calendars.evaluate("EXPIRATIONS_93")
        assert len(cal) == 12

    def test_07_rule_catalog_consistent(self, office):
        db, manager, *_ = office
        info_names = set(db.execute(
            "retrieve (r.rulename) from r in rule_info").column(
            "rulename"))
        assert info_names == set(manager.temporal_rules)
