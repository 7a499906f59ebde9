"""Parallel DBCRON firing: same-tick waves, determinism, metrics.

Rules due at the *same* fire tick form a wave and may fire on the worker
pool concurrently; waves for different ticks stay strictly ordered, so
the observable firing sequence matches the sequential daemon exactly.
"""

import threading

import pytest

from repro.db import Database
from repro.obs.instrument import Instrumentation
from repro.rules import DBCron, RuleManager, SimulatedClock
from repro.runtime import WorkerPool
from repro.session import Session


@pytest.fixture()
def parallel_cron(db):
    """(db, manager, clock, cron) whose cron owns a 4-thread pool."""
    manager = RuleManager(db)
    clock = SimulatedClock(now=db.system.day_of("Jan 1 1993"))
    pool = WorkerPool(4)
    cron = DBCron(manager, clock, period=7, pool=pool)
    yield db, manager, clock, cron
    pool.close()


def _define(manager, clock, name, expr, log):
    manager.declare_temporal(
        name, expression=expr,
        callback=lambda d, t, n=name: log.append((n, t)),
        after=clock.now)


class TestSameTickWave:
    def test_same_tick_rules_all_fire_once(self, parallel_cron):
        db, manager, clock, cron = parallel_cron
        log = []
        # Six rules sharing one trigger calendar: a single wave per tick.
        for i in range(6):
            _define(manager, clock, f"tue_{i}",
                    "[2]/DAYS:during:WEEKS", log)
        cron.run_until(db.system.day_of("Feb 1 1993"))
        by_rule = {}
        for name, tick in log:
            by_rule.setdefault(name, []).append(tick)
        assert len(by_rule) == 6
        ticks = list(by_rule.values())
        # Every rule fired on exactly the same tick sequence, once each.
        assert all(t == ticks[0] for t in ticks)
        assert len(ticks[0]) == len(set(ticks[0]))

    def test_wave_actually_runs_on_workers(self, parallel_cron):
        db, manager, clock, cron = parallel_cron
        threads = set()
        for i in range(4):
            manager.declare_temporal(
                f"r{i}", expression="[2]/DAYS:during:WEEKS",
                callback=lambda d, t: threads.add(
                    threading.current_thread().name),
                after=clock.now)
        cron.run_until(clock.now + 7)
        assert any(name.startswith("repro-worker") for name in threads)


class TestParallelEqualsSequential:
    EXPRS = [
        "[2]/DAYS:during:WEEKS",          # Tuesdays
        "[5]/DAYS:during:WEEKS",          # Fridays
        "[1]/DAYS:during:MONTHS",         # month firsts
        "[15]/DAYS:during:MONTHS",        # mid-month
    ]

    def _run(self, registry, pool):
        # A fresh database per run: rule state lives in its tables.
        db = Database(calendars=registry)
        manager = RuleManager(db)
        clock = SimulatedClock(now=db.system.day_of("Jan 1 1993"))
        cron = DBCron(manager, clock, period=7, pool=pool)
        log = []
        for i, expr in enumerate(self.EXPRS):
            _define(manager, clock, f"rule_{i}", expr, log)
        cron.run_until(db.system.day_of("Apr 1 1993"))
        return log, cron.stats

    def test_fire_sets_and_tick_order_match(self, registry):
        sequential_log, seq_stats = self._run(registry, WorkerPool(1))
        pool = WorkerPool(4)
        try:
            parallel_log, par_stats = self._run(registry, pool)
        finally:
            pool.close()
        assert par_stats.fires == seq_stats.fires
        # Same (rule, tick) multiset...
        assert sorted(parallel_log) == sorted(sequential_log)
        # ...and the tick sequence is still monotone (waves in order).
        ticks = [tick for _, tick in parallel_log]
        assert ticks == sorted(ticks)


class TestMetricsUnderParallelFiring:
    def test_fire_seconds_counted_per_fire(self):
        # A 4-worker session: the cron fires waves on the session pool.
        session = Session("Jan 1 1987", holiday_years=(1993, 1994),
                          workers=4, instrumentation=Instrumentation())
        log = []
        for i in range(3):
            _define(session.manager, session.clock, f"m{i}",
                    "[2]/DAYS:during:WEEKS", log)
        session.cron.run_until(session.system.day_of("Feb 1 1993"))
        assert log
        snap = session.metrics()
        assert snap["dbcron.fires"] == len(log)
        assert snap["dbcron.fire_seconds"]["count"] == len(log)
