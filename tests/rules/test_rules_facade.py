"""Tests for the ``Session.rules`` facade."""

import pytest

from repro.rules import DBCron, HeapSchedule
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
        assert session.rules.get("ping") is rule
        assert "ping" in session.rules
        session.cron.run_until(12)
        assert fired == [5, 9]

    def test_arguments_are_keyword_only(self, session):
        with pytest.raises(TypeError):
            session.rules.on_calendar("ping", "PINGS")


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
        sess.cron = DBCron(sess.manager, sess.clock, schedule=schedule)

    def test_session_scheduler_override(self):
        sess = Session("Jan 1 1987")
        try:
            self.inject(sess, HeapSchedule())
            stats = sess.rules.stats()
            assert stats["daemon"]["scheduler"] == "heap"
            assert stats["schedule"]["kind"] == "heap"
        finally:
            sess.close()


class TestDeprecatedShims:
    def test_new_entry_points_do_not_warn(self, session, recwarn):
        session.manager.declare_temporal("ping", expression="PINGS",
                                         callback=lambda d, t: None)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]
