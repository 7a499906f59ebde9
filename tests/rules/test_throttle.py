"""Unit and daemon-integration tests for per-tenant admission control."""

import pytest

from repro.catalog import CalendarRegistry
from repro.core import CalendarSystem
from repro.db import Database
from repro.rules import (
    DBCron,
    HeapSchedule,
    RuleManager,
    SimulatedClock,
    TenantThrottle,
    ThrottledError,
    TokenBucket,
)


class TestTokenBucket:
    def test_rejects_nonpositive_limits(self):
        with pytest.raises(ValueError):
            TokenBucket(0, 5)
        with pytest.raises(ValueError):
            TokenBucket(1, 0)

    def test_starts_full_and_spends_down(self):
        bucket = TokenBucket(rate=1, burst=3)
        assert [bucket.admit(1) for _ in range(4)] == \
            [True, True, True, False]

    def test_refills_per_elapsed_tick_capped_at_burst(self):
        bucket = TokenBucket(rate=1, burst=3)
        for _ in range(3):
            bucket.admit(1)
        assert not bucket.admit(1)       # empty at tick 1
        assert bucket.admit(2)           # +1 token at tick 2
        assert not bucket.admit(2)
        assert bucket.admit(100)         # long idle refills...
        assert bucket.admit(100)
        assert bucket.admit(100)
        assert not bucket.admit(100)     # ...but only up to burst

    def test_grant_is_partial_and_whole_tokens(self):
        bucket = TokenBucket(rate=2, burst=4)
        assert bucket.grant(1, 10) == 4  # starts full
        assert bucket.grant(1, 10) == 0  # same tick: no refill
        assert bucket.grant(2, 10) == 2  # one tick later: +rate

    def test_time_never_flows_backwards(self):
        bucket = TokenBucket(rate=1, burst=1)
        assert bucket.admit(10)
        # A stale now must not mint tokens or crash.
        assert not bucket.admit(5)
        assert bucket.admit(11)


class TestTenantThrottle:
    def test_unlimited_by_default(self):
        throttle = TenantThrottle()
        assert throttle.grant_fires("t", 1, 1000) == 1000
        assert throttle.admit_registration("t", 1)
        assert throttle.drops() == 0

    def test_fire_budget_sheds_the_excess(self):
        throttle = TenantThrottle(fires_per_tick=2, fire_burst=2)
        assert throttle.grant_fires("t", 5, 5) == 2
        stats = throttle.stats()["t"]
        assert stats["fired"] == 2
        assert stats["shed"] == 3
        assert throttle.drops() == 3

    def test_registration_budget_denies_the_excess(self):
        throttle = TenantThrottle(registrations_per_tick=1,
                                  registration_burst=2)
        grants = [throttle.admit_registration("t", 1) for _ in range(3)]
        assert grants == [True, True, False]
        assert throttle.stats()["t"]["denied"] == 1

    def test_tenants_have_independent_buckets(self):
        throttle = TenantThrottle(fires_per_tick=1, fire_burst=1)
        assert throttle.grant_fires("a", 1, 1) == 1
        assert throttle.grant_fires("b", 1, 1) == 1  # a's spend is a's

    def test_per_tenant_override(self):
        throttle = TenantThrottle(fires_per_tick=1, fire_burst=1)
        throttle.set_limits("vip")  # all None = unlimited
        assert throttle.grant_fires("vip", 1, 50) == 50
        assert throttle.grant_fires("free", 1, 50) == 1


# -- daemon integration -------------------------------------------------------


@pytest.fixture()
def stack():
    registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                default_horizon_years=3)
    db = Database(calendars=registry)
    manager = RuleManager(db)
    clock = SimulatedClock(now=1)
    return registry, db, manager, clock


class TestRegistrationThrottling:
    def test_over_budget_declaration_raises(self, stack):
        registry, _, manager, clock = stack
        registry.define("T5", values=[(5, 5)], granularity="DAYS")
        manager.throttle = TenantThrottle(registrations_per_tick=1,
                                          registration_burst=2)
        manager.clock = clock
        manager.declare_temporal("a", expression="T5", callback=lambda d, t:
                                 None, tenant="acme")
        manager.declare_temporal("b", expression="T5", callback=lambda d, t:
                                 None, tenant="acme")
        with pytest.raises(ThrottledError):
            manager.declare_temporal("c", expression="T5",
                                     callback=lambda d, t: None,
                                     tenant="acme")
        # The refused rule left nothing behind, and other tenants are
        # unaffected.
        assert "c" not in manager.temporal_rules
        manager.declare_temporal("d", expression="T5",
                                 callback=lambda d, t: None, tenant="beta")

    def test_budget_refills_as_the_clock_advances(self, stack):
        registry, _, manager, clock = stack
        registry.define("T9", values=[(9, 9)], granularity="DAYS")
        manager.throttle = TenantThrottle(registrations_per_tick=1,
                                          registration_burst=1)
        manager.clock = clock
        manager.declare_temporal("a", expression="T9",
                                 callback=lambda d, t: None)
        with pytest.raises(ThrottledError):
            manager.declare_temporal("b", expression="T9",
                                     callback=lambda d, t: None)
        clock.advance(1)  # one tick later there is budget again
        manager.declare_temporal("b", expression="T9",
                                 callback=lambda d, t: None)


class TestFireShedding:
    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_sheds_lowest_priority_first(self, stack, scheduler):
        registry, _, manager, clock = stack
        registry.define("T5", values=[(5, 5)], granularity="DAYS")
        throttle = TenantThrottle(fires_per_tick=1, fire_burst=1)
        cron = DBCron(manager, clock, period=7, throttle=throttle,
                      schedule=HeapSchedule() if scheduler == "heap"
                      else None)
        fired = []
        low = manager.declare_temporal(
            "low", expression="T5", tenant="acme", priority=0,
            callback=lambda d, t: fired.append("low"), after=1)
        high = manager.declare_temporal(
            "high", expression="T5", tenant="acme", priority=5,
            callback=lambda d, t: fired.append("high"), after=1)
        cron.run_until(20)
        assert fired == ["high"]
        assert high.shed_count == 0
        assert low.shed_count == 1
        assert cron.stats.sheds == 1
        assert cron.stats.fires == 1
        assert throttle.stats()["acme"] == {
            "fired": 1, "shed": 1, "registered": 0, "denied": 0}
        assert clock.now == 20  # shedding never stalls the clock

    def test_shed_rule_is_rescheduled_not_dropped(self, stack):
        # Shedding skips *one* occurrence: the rule stays registered and
        # competes again at its next trigger point.
        registry, _, manager, clock = stack
        registry.define("TWICE", values=[(5, 5), (9, 9)],
                        granularity="DAYS")
        registry.define("ONCE", values=[(5, 5)], granularity="DAYS")
        throttle = TenantThrottle(fires_per_tick=1, fire_burst=1)
        cron = DBCron(manager, clock, period=7, throttle=throttle)
        fired = []
        manager.declare_temporal(
            "steady", expression="TWICE", tenant="acme", priority=0,
            callback=lambda d, t: fired.append(("steady", t)), after=1)
        manager.declare_temporal(
            "vip", expression="ONCE", tenant="acme", priority=9,
            callback=lambda d, t: fired.append(("vip", t)), after=1)
        cron.run_until(20)
        # Tick 5: both due, budget 1 -> vip wins, steady shed to 9.
        # Tick 9: steady alone, refilled budget -> fires.
        assert fired == [("vip", 5), ("steady", 9)]
        assert manager.temporal_rules["steady"].shed_count == 1

    def test_other_tenants_unaffected_by_a_storm(self, stack):
        registry, _, manager, clock = stack
        registry.define("T5", values=[(5, 5)], granularity="DAYS")
        throttle = TenantThrottle(fires_per_tick=1, fire_burst=1)
        throttle.set_limits("paid")  # unlimited
        cron = DBCron(manager, clock, period=7, throttle=throttle)
        fired = []
        for i in range(5):
            manager.declare_temporal(
                f"noisy{i}", expression="T5", tenant="free",
                callback=(lambda n: lambda d, t: fired.append(n))(
                    f"noisy{i}"), after=1)
        manager.declare_temporal(
            "report", expression="T5", tenant="paid",
            callback=lambda d, t: fired.append("report"), after=1)
        cron.run_until(20)
        assert "report" in fired
        assert len([n for n in fired if n.startswith("noisy")]) == 1
        assert throttle.stats()["free"]["shed"] == 4

    def test_ties_shed_by_wave_position(self, stack):
        # Equal priority: later wave positions (later arms) shed first,
        # so the outcome is deterministic.
        registry, _, manager, clock = stack
        registry.define("T5", values=[(5, 5)], granularity="DAYS")
        throttle = TenantThrottle(fires_per_tick=2, fire_burst=2)
        cron = DBCron(manager, clock, period=7, throttle=throttle)
        fired = []
        for name in ("first", "second", "third"):
            manager.declare_temporal(
                name, expression="T5", tenant="acme",
                callback=(lambda n: lambda d, t: fired.append(n))(name),
                after=1)
        cron.run_until(10)
        assert fired == ["first", "second"]

    def test_no_throttle_means_no_shedding(self, stack):
        registry, _, manager, clock = stack
        registry.define("T5", values=[(5, 5)], granularity="DAYS")
        cron = DBCron(manager, clock, period=7)
        fired = []
        for i in range(10):
            manager.declare_temporal(
                f"r{i}", expression="T5",
                callback=lambda d, t: fired.append(t), after=1)
        cron.run_until(10)
        assert len(fired) == 10
        assert cron.stats.sheds == 0
