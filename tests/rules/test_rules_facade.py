"""Tests for the ``Session.rules`` facade."""

import json
import urllib.request

import pytest

from repro.rules import DBCron, HeapSchedule, WheelSchedule
from repro.session import Session


@pytest.fixture()
def session():
    sess = Session("Jan 1 1987")
    sess.registry.define("PINGS", values=[(5, 5), (9, 9)],
                         granularity="DAYS")
    yield sess
    sess.close()


class TestOnCalendar:
    def test_declares_and_fires(self, session):
        fired = []
        rule = session.rules.on_calendar(
            "ping", expression="PINGS",
            callback=lambda d, t: fired.append(t), after=1)
        assert rule.tenant == "default"
        assert rule.priority == 0
        assert "ping" in session.rules
        session.cron.run_until(12)
        assert fired == [5, 9]

    def test_arguments_are_keyword_only(self, session):
        with pytest.raises(TypeError):
            session.rules.on_calendar("ping", "PINGS")

    def test_tenant_and_priority_land_on_the_rule(self, session):
        rule = session.rules.on_calendar(
            "ping", expression="PINGS", callback=lambda d, t: None,
            tenant="payroll", priority=7)
        assert (rule.tenant, rule.priority) == ("payroll", 7)
        assert session.rules.get("ping") is rule


class TestOnEvent:
    def test_declares_and_fires(self, session):
        session.db.create_table("emp", [("name", "text"),
                                        ("hours", "int4")])
        seen = []
        session.rules.on_event(
            "audit", event="append", relation="emp",
            where="new.hours > 20",
            callback=lambda d, e: seen.append(e.new["name"]))
        session.db.insert("emp", name="alice", hours=25)
        session.db.insert("emp", name="bob", hours=10)
        assert seen == ["alice"]

    def test_arguments_are_keyword_only(self, session):
        with pytest.raises(TypeError):
            session.rules.on_event("audit", "append", "emp")


class TestFacadeSurface:
    def test_names_len_and_drop(self, session):
        session.db.create_table("emp", [("name", "text")])
        session.rules.on_event("e1", event="append", relation="emp",
                               callback=lambda d, e: None)
        session.rules.on_calendar("t1", expression="PINGS",
                                  callback=lambda d, t: None)
        assert session.rules.names() == ["e1", "t1"]
        assert len(session.rules) == 2
        session.rules.drop("t1")
        assert "t1" not in session.rules
        assert len(session.rules) == 1

    def test_dropped_rule_never_fires(self, session):
        fired = []
        session.rules.on_calendar("ping", expression="PINGS",
                                  callback=lambda d, t: fired.append(t),
                                  after=1)
        session.rules.drop("ping")
        session.cron.run_until(12)
        assert fired == []

    def test_stats_shape(self):
        sess = Session("Jan 1 1987")
        try:
            sess.registry.define("PINGS", values=[(5, 5), (9, 9)],
                                 granularity="DAYS")
            sess.rules.on_calendar("ping", expression="PINGS",
                                   callback=lambda d, t: None, after=1)
            sess.cron.run_until(12)
            stats = sess.rules.stats()
            assert stats["temporal_rules"] == 1
            assert stats["clock"] == 12
            daemon = stats["daemon"]
            assert daemon["scheduler"] == "wheel"
            assert daemon["fires"] == 2
            assert daemon["probes"] >= 1
            assert stats["schedule"]["kind"] == "wheel"
            assert "throttle" not in stats  # none attached
        finally:
            sess.close()

    def test_survives_database_reattachment(self, session):
        facade = session.rules
        old_cron = session.cron
        session.attach_database(session.db)
        assert session.rules is facade
        assert session.cron is not old_cron
        # The facade reads through the session: stats reflect the new
        # daemon, and the detached one no longer hears the clock.
        assert facade.stats()["daemon"]["fires"] == 0
        fired = []
        facade.on_calendar("ping", expression="PINGS",
                           callback=lambda d, t: fired.append(t), after=1)
        session.cron.run_until(6)
        assert fired == [5]
        assert old_cron.stats.fires == 0


class TestSchedulerSelection:
    @staticmethod
    def inject(sess, schedule):
        """Swap the session's daemon for one on ``schedule``."""
        sess.cron.detach()
        sess.cron = DBCron(sess.manager, sess.clock, pool=sess.pool,
                           schedule=schedule)

    def test_session_scheduler_override(self):
        sess = Session("Jan 1 1987")
        try:
            self.inject(sess, HeapSchedule())
            stats = sess.rules.stats()
            assert stats["daemon"]["scheduler"] == "heap"
            assert stats["schedule"]["kind"] == "heap"
        finally:
            sess.close()

    def test_wheel_shards_override(self):
        sess = Session("Jan 1 1987")
        try:
            self.inject(sess, WheelSchedule(sess.clock.now, shards=3))
            assert sess.rules.stats()["schedule"]["shards"] == 3
        finally:
            sess.close()


class TestDeprecatedShims:
    def test_new_entry_points_do_not_warn(self, session, recwarn):
        session.manager.declare_temporal("ping", expression="PINGS",
                                         callback=lambda d, t: None)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


class TestRulesEndpoint:
    def test_rules_stats_served_over_http(self, session):
        fired = []
        session.rules.on_calendar("ping", expression="PINGS",
                                  callback=lambda d, t: fired.append(t),
                                  after=1)
        session.cron.run_until(6)
        server = session.start_telemetry_server(0)
        url = f"http://127.0.0.1:{server.port}/rules"
        with urllib.request.urlopen(url, timeout=5) as response:
            payload = json.loads(response.read())
        assert payload["temporal_rules"] == 1
        assert payload["daemon"]["scheduler"] == session.cron.sched.kind
        assert payload["daemon"]["fires"] == len(fired) == 1
        assert payload["schedule"]["kind"] == session.cron.sched.kind
