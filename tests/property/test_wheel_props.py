"""Property-based parity: the timing wheel ≡ the legacy heap scheduler.

For random rule sets (random explicit calendars and probe periods), a
wheel-scheduled daemon must fire exactly the same (rule, tick)
sequence as a heap-scheduled one.  Order *within* one tick is normalised
— both schedulers are deterministic, but the contract is per-tick set
equality plus cross-tick ordering, and that is what downstream rule
semantics depend on.
"""

import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.catalog import CalendarRegistry
from repro.core import CalendarSystem
from repro.core.errors import AxisError
from repro.db import Database
from repro.rules import DBCron, HeapSchedule, RuleManager, SimulatedClock
from repro.rules.wheel import WheelSchedule

rule_schedules = st.lists(
    st.lists(st.integers(min_value=5, max_value=400),
             min_size=1, max_size=10, unique=True),
    min_size=1, max_size=5)
periods = st.integers(min_value=1, max_value=40)


def run_daemon(schedules, period, schedule):
    """Fire a rule set to completion; [(tick, {rules fired at tick})]."""
    registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                default_horizon_years=3)
    db = Database(calendars=registry)
    manager = RuleManager(db)
    clock = SimulatedClock(now=1)
    cron = DBCron(manager, clock, period=period, schedule=schedule)
    assert cron.sched is schedule
    fired: list[tuple[int, str]] = []
    for i, days in enumerate(schedules):
        registry.define(f"S{i}", values=[(d, d) for d in sorted(days)],
                        granularity="DAYS")
        manager.declare_temporal(
            f"rule{i}", expression=f"S{i}",
            callback=(lambda n: lambda d, t: fired.append((t, n)))(
                f"rule{i}"), after=1)
    cron.run_until(450)
    # Normalise within-tick order: per-tick sets, cross-tick sequence.
    waves: list[tuple[int, set]] = []
    for tick, name in fired:
        if waves and waves[-1][0] == tick:
            waves[-1][1].add(name)
        else:
            waves.append((tick, {name}))
    return waves


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rule_schedules, periods)
def test_wheel_fires_identically_to_heap(schedules, period):
    heap_waves = run_daemon(schedules, period, HeapSchedule())
    wheel_waves = run_daemon(schedules, period, WheelSchedule(1))
    assert wheel_waves == heap_waves, \
        f"period={period}: wheel {wheel_waves} != heap {heap_waves}"


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.text(alphabet="abcdef", min_size=1,
                                  max_size=6),
                          st.integers(min_value=0, max_value=200)),
                min_size=1, max_size=30))
def test_schedule_pop_parity_on_raw_arms(arms):
    """The bare strategy objects agree, whatever the arm stream; both
    refuse the nonexistent tick 0 with the same typed error."""
    heap, wheel = HeapSchedule(), WheelSchedule(1, slots=(4, 4, 4))
    for name, tick in arms:
        if tick == 0:
            for sched in (heap, wheel):
                with pytest.raises(AxisError):
                    sched.schedule(name, tick)
            continue
        assert heap.schedule(name, tick) == wheel.schedule(name, tick)
    assert len(heap) == len(wheel)

    def waves(sched):
        out = []
        while True:
            wave = sched.pop_wave(500)
            if not wave:
                return out
            out.append((wave[0][0], {name for _, name in wave}))

    assert waves(wheel) == waves(heap)


#: Axis ticks around the zero skip (there is no tick 0).
_ticks = st.integers(min_value=-20, max_value=120).filter(bool)
#: The same range with the nonexistent tick 0, which must be refused.
_raw_ticks = st.integers(min_value=-20, max_value=120)
_ops = st.lists(st.one_of(
    st.tuples(st.just("arm"), st.sampled_from("abcdefgh"), _raw_ticks),
    st.tuples(st.just("arm_many"),
              st.lists(st.tuples(st.sampled_from("abcdefgh"), _raw_ticks),
                       max_size=5)),
    st.tuples(st.just("cancel"), st.sampled_from("abcdefgh")),
    st.tuples(st.just("pop"), _raw_ticks),
), max_size=40)


@settings(max_examples=200, deadline=None)
@given(_ops, _ticks, st.integers(min_value=0, max_value=40))
def test_probe_counts_match_a_brute_force_count(ops, now, horizon):
    """``due_within`` reads the wheel's tick counts; it must equal a
    brute-force count over a model of the live armament.  Arms at tick
    0 and pops behind the wheel's cursor (an earlier ``now``) raise
    :class:`AxisError` and change nothing."""
    wheel = WheelSchedule(-20, slots=(4, 4, 4))
    armed: dict[str, int] = {}
    fired: dict[str, int] = {}
    clock = -20

    def model_arm(name: str, tick: int) -> bool:
        if armed.get(name) == tick or tick <= fired.get(name, tick - 1):
            return False
        armed[name] = tick
        return True

    for op in ops:
        if op[0] == "arm" and op[2] == 0:
            with pytest.raises(AxisError):
                wheel.schedule(op[1], op[2])
        elif op[0] == "arm":
            assert wheel.schedule(op[1], op[2]) == model_arm(op[1], op[2])
        elif op[0] == "arm_many" and any(t == 0 for _, t in op[1]):
            with pytest.raises(AxisError):
                wheel.schedule_many(op[1])
        elif op[0] == "arm_many":
            expected = sum(model_arm(name, tick) for name, tick in op[1])
            assert wheel.schedule_many(op[1]) == expected
        elif op[0] == "cancel":
            wheel.cancel(op[1])
            armed.pop(op[1], None)
            fired.pop(op[1], None)
        elif op[1] == 0 or op[1] < clock:
            with pytest.raises(AxisError):
                wheel.pop_wave(op[1])
        else:
            clock = op[1]
            wave = wheel.pop_wave(clock)
            due = [tick for tick in armed.values() if tick <= clock]
            if not due:
                assert wave == []
                continue
            tick = min(due)
            assert {name for _, name in wave} == \
                {name for name, t in armed.items() if t == tick}
            for _, name in wave:
                del armed[name]
                fired[name] = tick
    bound = now + horizon
    assert wheel.due_within(now, horizon) == \
        sum(1 for tick in armed.values() if tick <= bound)
    assert len(wheel) == len(armed)
