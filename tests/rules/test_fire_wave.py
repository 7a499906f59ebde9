"""DBCRON waves: rules due at one tick fire as one batch.

A wave fires its rules one by one in wave order, then writes their
RULE_TIME rows and re-arms them once (``RuleManager.fire_wave``).  These
tests pin what that batching must not change — fire order, fire ticks,
RULE_TIME after each wave — and the error path: a raising rule must not
take the rest of its wave out of the schedule.  RULE_TIME's rows are
materialised on read; the last section checks every read against the
same writes applied at once.
"""

import sys
import threading
from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest

from repro.catalog import CalendarRegistry
from repro.core import CalendarSystem
from repro.db import Database
from repro.db.errors import DataTypeError, RuleError
from repro.db.persist import load_database, save_database
from repro.obs.instrument import Instrumentation
from repro.obs.tracer import Tracer
from repro.rules import (
    DBCron,
    HeapSchedule,
    RuleManager,
    SimulatedClock,
    WheelSchedule,
)
from repro.rules.manager import _Wave
from repro.rules.tables import RuleTables
from repro.rules.temporal import TemporalRule
from repro.session import Session

TUESDAYS = "[2]/DAYS:during:WEEKS"
#: Jan 1 1987 (tick 1) is a Thursday: Tuesdays are ticks 6, 13, 20, 27.
TUESDAY_TICKS = [6, 13, 20, 27]


@pytest.fixture()
def stack():
    registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                default_horizon_years=3)
    db = Database(calendars=registry)
    manager = RuleManager(db)
    clock = SimulatedClock(now=1)
    return registry, db, manager, clock


def _daemon(manager, clock, scheduler):
    """A daemon on the heap oracle or the default wheel."""
    cron = DBCron(manager, clock, period=7,
                  schedule=HeapSchedule() if scheduler == "heap" else None)
    assert isinstance(cron.sched, HeapSchedule) == (scheduler == "heap")
    return cron


def _rule_time(db) -> list:
    return sorted((row["rulename"], row["next_fire"])
                  for row in db.relation("rule_time").scan())


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
def test_raising_rule_keeps_its_wave_scheduled(stack, scheduler):
    # Regression: pop_wave disarms a whole wave before any of it fires,
    # and one raising callback used to leave the rest of the wave (and
    # itself) unarmed for good: the second rule never fired again.
    _, db, manager, clock = stack
    cron = _daemon(manager, clock, scheduler)
    fired = {"bad": [], "good": []}

    def bad(_db, tick):
        fired["bad"].append(tick)
        raise RuntimeError("boom")

    manager.declare_temporal("bad", expression=TUESDAYS, callback=bad,
                             after=1)
    manager.declare_temporal(
        "good", expression=TUESDAYS,
        callback=lambda _db, tick: fired["good"].append(tick), after=1)
    errors = []
    while clock.now < 31:
        try:
            cron.run_until(31)
        except Exception as exc:  # noqa: BLE001 - collected and checked
            errors.append(exc)
    assert fired == {"bad": TUESDAY_TICKS, "good": TUESDAY_TICKS}
    assert len(cron.sched) == 2
    assert _rule_time(db) == [("bad", 34), ("good", 34)]
    assert cron.stats.fires == 2 * len(TUESDAY_TICKS)
    # One error per wave, typed, with the callback's error as its cause.
    assert len(errors) == len(TUESDAY_TICKS)
    assert all(isinstance(exc, RuleError) for exc in errors)
    assert all(isinstance(exc.__cause__, RuntimeError) for exc in errors)


def test_repro_errors_are_raised_unwrapped(stack):
    _, _, manager, clock = stack
    DBCron(manager, clock, period=7)

    def bad(_db, tick):
        raise RuleError("typed already")

    manager.declare_temporal("bad", expression=TUESDAYS, callback=bad,
                             after=1)
    with pytest.raises(RuleError, match="typed already"):
        manager.fire_temporal("bad", 6)
    assert manager.tables.next_fire_of("bad") == 13


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
def test_action_drops_a_later_rule_of_the_same_wave(stack, scheduler):
    _, db, manager, clock = stack
    cron = _daemon(manager, clock, scheduler)
    log = []

    def dropper(_db, tick):
        log.append(("first", tick))
        if "second" in manager.temporal_rules:
            manager.drop_rule("second")

    manager.declare_temporal("first", expression=TUESDAYS,
                             callback=dropper, after=1)
    manager.declare_temporal(
        "second", expression=TUESDAYS,
        callback=lambda _db, tick: log.append(("second", tick)), after=1)
    cron.run_until(20)
    assert log == [("first", 6), ("first", 13), ("first", 20)]
    assert _rule_time(db) == [("first", 27)]
    assert len(cron.sched) == 1


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
def test_callback_that_redeclares_itself_keeps_the_new_schedule(
        stack, scheduler):
    # The wave must not overwrite a redeclared rule's RULE_TIME row or
    # arm with the dropped incarnation's next trigger.
    registry, db, manager, clock = stack
    registry.define("FRIDAYS_LATER", values=[(16, 16), (23, 23)],
                    granularity="DAYS")
    cron = _daemon(manager, clock, scheduler)
    log = []

    def redeclare(_db, tick):
        log.append(("old", tick))
        manager.drop_rule("r")
        manager.declare_temporal(
            "r", expression="FRIDAYS_LATER",
            callback=lambda _db, t: log.append(("new", t)), after=tick)

    manager.declare_temporal("r", expression=TUESDAYS, callback=redeclare,
                             after=1)
    cron.run_until(6)
    assert _rule_time(db) == [("r", 16)]
    cron.run_until(30)
    assert log == [("old", 6), ("new", 16), ("new", 23)]


def test_catchup_latest_in_a_shared_wave(stack):
    # The wheel: a clock jump reaches every missed tick without probes.
    _, db, manager, clock = stack
    DBCron(manager, clock, period=7)
    log = []
    for name, catchup in (("all", "all"), ("latest", "latest")):
        manager.declare_temporal(
            name, expression=TUESDAYS, catchup=catchup, after=1,
            callback=lambda _db, tick, n=name: log.append((n, tick)))
    clock.advance(21)  # one jump past the Tuesdays 6, 13 and 20
    assert log == [("all", 6), ("latest", 20), ("all", 13), ("all", 20)]
    assert _rule_time(db) == [("all", 27), ("latest", 27)]


def _session_run(tracing: bool):
    """Fires in order as (tick, rule, next fire), fire counts and
    RULE_TIME, read from the rule callbacks and RULE_TIME; plus the
    same triples from the ``rule.fire`` spans (empty when untraced).

    A fire's next fire is its rule's following fire tick, or for the
    rule's last fire its RULE_TIME row after the run.
    """
    # A ring wide enough for every wave and probe of the run.
    inst = Instrumentation(tracer=Tracer(ring_size=512), tracing=tracing)
    session = Session("Jan 1 1987", instrumentation=inst, clock_start=2200)
    fires = []
    try:
        for i, expr in enumerate([TUESDAYS, TUESDAYS,
                                  "[5]/DAYS:during:WEEKS",
                                  "[1]/DAYS:during:MONTHS", TUESDAYS,
                                  "[15]/DAYS:during:MONTHS"]):
            session.rules.on_calendar(
                f"rule_{i}", expression=expr,
                callback=lambda d, t, n=f"rule_{i}": fires.append((t, n)))
        session.cron.run_until(2200 + 120)
        counts = sorted((name, rule.fire_count) for name, rule in
                        session.manager.temporal_rules.items())
        rule_time = _rule_time(session.db)
        following = dict(rule_time)
        ordered = []
        for tick, name in reversed(fires):
            ordered.append((tick, name, following[name]))
            following[name] = tick
        ordered.reverse()
        spans = [(span.meta["tick"], span.meta["rule"],
                  span.meta["next_fire"])
                 for root in session.recent_traces()
                 for span in root.find("rule.fire")]
        return (ordered, counts, rule_time), spans
    finally:
        session.close()


def test_tracing_does_not_change_what_fires():
    untraced, no_spans = _session_run(tracing=False)
    assert untraced[0], "the run fired nothing"
    assert no_spans == []
    traced, spans = _session_run(tracing=True)
    assert traced == untraced
    # Every fire's span records the next fire it armed.
    assert spans == untraced[0]


def test_fire_wave_reports_next_fires_in_entry_order(stack):
    _, db, manager, clock = stack
    DBCron(manager, clock, period=7)
    for name in ("a", "b"):
        manager.declare_temporal(name, expression=TUESDAYS,
                                 callback=lambda d, t: None, after=1)
    assert manager.fire_wave([(6, "b"), (6, "ghost"), (6, "a")]) == \
        [13, None, 13]
    assert _rule_time(db) == [("a", 13), ("b", 13)]


# -- one next trigger per expression group ---------------------------------
#
# A wave looks each rule's next trigger up once per group of rules with
# the same expression text, lifespan, tick and catalog version (the
# per-wave memo ``manager._Wave``; ``TemporalRule.next_trigger`` keeps
# its own registry memo behind it).  Each case below runs on the wheel
# and on the heap oracle, and once more with the wave memo replaced by
# the per-entry ``next_trigger`` call; every run must end alike.

ONCE = "ONCE"
PAYDAYS = "PAYDAYS"


def _log_action(name: str) -> str:
    return f'append fire_log (rule = "{name}", t = now.t)'


def _redefine_mid_wave(registry, manager) -> None:
    # Tick 13 fires one wave in arm order: a PAYDAYS rule, then
    # ``a_redefine``, whose callback replaces PAYDAYS (13, 30 -> 13, 25)
    # and whose Postquel actions log the fire and define a calendar (a
    # second catalog version bump; Postquel cannot replace one), then
    # more PAYDAYS rules.  The early rule keeps the old answer (30);
    # those after the redefinition get the new catalog's (25).  Two
    # Tuesday rules close the wave.
    registry.define(ONCE, values=[(13, 13)], granularity="DAYS")
    registry.define(PAYDAYS, values=[(13, 13), (30, 30)],
                    granularity="DAYS")
    manager.declare_temporal("a_pay_early", expression=PAYDAYS, after=1,
                             actions=[_log_action("a_pay_early")])

    def redefine(_db, tick):
        registry.define(PAYDAYS, values=[(13, 13), (25, 25)],
                        granularity="DAYS", replace=True)

    manager.declare_temporal(
        "a_redefine", expression=ONCE, after=1, callback=redefine,
        actions=[_log_action("a_redefine"),
                 "define calendar EXTRA values ((40, 40)) granularity DAYS"])
    for name in ("b_pay0", "b_pay1", "b_pay2"):
        manager.declare_temporal(name, expression=PAYDAYS, after=1,
                                 actions=[_log_action(name)])
    for name in ("c_tue0", "c_tue1"):
        manager.declare_temporal(name, expression=TUESDAYS, after=1,
                                 callback=lambda _db, tick: None)


def _lifespans_share_a_text(registry, manager) -> None:
    # One expression text, four lifespans: a wave at tick 13 holds rules
    # whose next trigger is 20, 20 and None (its lifespan ends at 15).
    for name, span in (("life_none", None), ("life_short", (1, 15)),
                       ("life_long", (1, 100)), ("life_late", (14, 100)),
                       ("life_none2", None)):
        manager.declare_temporal(name, expression=TUESDAYS, after=1,
                                 valid_between=span,
                                 actions=[_log_action(name)])


def _latest_shares_its_group(registry, manager) -> None:
    # A probe period longer than the month: one clock step passes the
    # Tuesdays 6, 13, 20 and 27, so ``latest`` catches up to 27 in the
    # first wave while the ``all`` rules of its group fire every one.
    for name, catchup in (("all_a", "all"), ("latest", "latest"),
                          ("all_b", "all")):
        manager.declare_temporal(name, expression=TUESDAYS, after=1,
                                 catchup=catchup,
                                 actions=[_log_action(name)])


#: case -> (declare, probe period, run until).
WAVE_CASES = {
    "redefine_mid_wave": (_redefine_mid_wave, 7, 45),
    "lifespans_share_a_text": (_lifespans_share_a_text, 7, 45),
    "latest_shares_its_group": (_latest_shares_its_group, 30, 62),
}


def _wave_case_run(case: str, scheduler: str, per_entry: bool):
    """Next fires per flush, fire counts, fire_log, RULE_TIME, and how
    often ``TemporalRule.next_trigger`` (a registry memo lookup, or the
    computation on a miss) ran while the daemon fired."""
    declare, period, until = WAVE_CASES[case]
    registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                default_horizon_years=3)
    db = Database(calendars=registry)
    db.create_table("fire_log", [("rule", "text"), ("t", "abstime")])
    manager = RuleManager(db)
    clock = SimulatedClock(now=1)
    schedule = HeapSchedule() if scheduler == "heap" else \
        WheelSchedule(clock.now)
    cron = DBCron(manager, clock, period=period, schedule=schedule)
    assert cron.sched is schedule
    declare(registry, manager)
    flushes: list = []
    manager.subscribe_schedule(lambda changes: flushes.append(
        sorted(changes, key=lambda change: change[0])))
    computed = []
    real = TemporalRule.next_trigger

    def counting(rule, registry, after, *args, **kwargs):
        computed.append((rule.name, after))
        return real(rule, registry, after, *args, **kwargs)

    def each_entry(wave, rule, at_tick):
        return rule.next_trigger(wave._db.calendars, at_tick)

    with ExitStack() as patches:
        patches.enter_context(
            mock.patch.object(TemporalRule, "next_trigger", counting))
        if per_entry:
            patches.enter_context(
                mock.patch.object(_Wave, "next_trigger", each_entry))
        cron.run_until(until)
    counts = sorted((name, rule.fire_count)
                    for name, rule in manager.temporal_rules.items())
    log = sorted((row["rule"], row["t"])
                 for row in db.relation("fire_log").scan())
    return (flushes, counts, log, _rule_time(db)), len(computed)


@pytest.mark.parametrize("case", sorted(WAVE_CASES))
def test_grouped_next_triggers_match_per_entry_and_heap(case):
    oracle, _ = _wave_case_run(case, "heap", per_entry=True)
    assert oracle[0], "the case fired nothing"
    for scheduler in ("heap", "wheel"):
        grouped, computed = _wave_case_run(case, scheduler, per_entry=False)
        per_entry, per_entry_computed = _wave_case_run(case, scheduler,
                                                       per_entry=True)
        assert grouped == per_entry, scheduler
        assert grouped == oracle, scheduler
        # The wave memo answered a group's later rules without reaching
        # ``TemporalRule.next_trigger`` and its registry memo.
        assert computed < per_entry_computed, scheduler


def test_redefinition_mid_wave_reaches_only_later_rules():
    (flushes, counts, log, rule_time), _ = _wave_case_run(
        "redefine_mid_wave", "wheel", per_entry=False)
    wave_13 = dict(next(flush for flush in flushes
                        if ("a_redefine", None) in flush))
    assert wave_13["a_pay_early"] == 30
    later = [name for name in wave_13 if name.startswith("b_pay")]
    assert len(later) == 3 and all(wave_13[name] == 25 for name in later)
    assert ("a_redefine", 13) in log
    assert dict(rule_time).get("a_redefine") is None


def test_lifespans_split_a_group():
    (flushes, _, _, _), _ = _wave_case_run(
        "lifespans_share_a_text", "wheel", per_entry=False)
    wave_13 = dict(next(flush for flush in flushes
                        if ("life_short", None) in flush))
    assert wave_13 == {"life_none": 20, "life_short": None,
                       "life_long": 20, "life_none2": 20}


# -- RULE_TIME materialised on read -----------------------------------------
#
# The manager's RULE_TIME writes wait in ``RuleTables``' pending map
# until something reads or writes the relation.  The oracle applies
# every write at once, as it is made; each read below must match it,
# row order included.


@contextmanager
def _eager_rule_time():
    """Every RULE_TIME write applied as it is made."""
    real = RuleTables.set_next_fires

    def eager(self, pairs):
        real(self, pairs)
        self.apply_pending()

    with mock.patch.object(RuleTables, "set_next_fires", eager):
        yield


_QUERY = "retrieve (r.rulename, r.next_fire) from r in rule_time"


def _rows(result) -> list:
    return [tuple(row.values()) for row in result.rows]


def _reads_run(eager: bool, scheduler: str, tmp_path=None):
    """Every RULE_TIME read of 60 days with mixed rules, a rule that
    reads RULE_TIME mid-wave and a drop + redeclare while writes are
    pending; with ``tmp_path``, also a save/load round trip taken on
    day 27 while its Tuesday wave is pending."""
    registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                default_horizon_years=3)
    db = Database(calendars=registry)
    db.create_table("fire_log", [("rule", "text"), ("t", "abstime")])
    manager = RuleManager(db)
    clock = SimulatedClock(now=1)
    cron = _daemon(manager, clock, scheduler)
    before = db.relation("rule_time")  # fetched before any wave
    mid_wave: dict[int, list] = {}

    def reader(_db, tick):
        mid_wave[tick] = _rows(_db.execute(_QUERY))

    reads: list = []
    with ExitStack() as patches:
        if eager:
            patches.enter_context(_eager_rule_time())
        for i, (expression, span) in enumerate([
                (TUESDAYS, None), ("[5]/DAYS:during:WEEKS", None),
                ("[1]/DAYS:during:MONTHS", None), (TUESDAYS, (1, 15)),
                ("[15]/DAYS:during:MONTHS", None), (TUESDAYS, None)]):
            manager.declare_temporal(f"r{i}", expression=expression,
                                     after=1, valid_between=span,
                                     actions=[_log_action(f"r{i}")])
        manager.declare_temporal("t_reader", expression=TUESDAYS, after=1,
                                 callback=reader)
        for day in range(2, 61):
            if day == 20:
                # The heap's daily probe leaves nothing pending.
                assert eager or scheduler == "heap" or \
                    manager.tables._pending, "no write is pending"
                manager.drop_rule("r1")
                manager.declare_temporal(
                    "r1", expression=TUESDAYS, after=day,
                    actions=[_log_action("r1")])
            cron.run_until(day)
            if day == 27 and tmp_path is not None:
                assert eager or manager.tables._pending
                path = str(tmp_path / f"rules-{eager}.json")
                save_database(db, path)
                loaded = load_database(path)
                reads.append(("loaded", sorted(
                    _rows(loaded.execute(_QUERY)))))
            if day % 7 == 0:  # a probe tick
                reads.append(("prefetched", [
                    (row["rulename"], row["next_fire"])
                    for row in before.scan()]))
                reads.append(("heap probe",
                              manager.tables.due_within(day, 7)))
                reads.append(("postquel", _rows(db.execute(_QUERY))))
                reads.append(("index", _rows(db.execute(
                    _QUERY + f" where r.next_fire <= {day + 10}"))))
    log = sorted(_rows(db.execute("retrieve (f.rule, f.t) from f in "
                                  "fire_log")))
    return reads, mid_wave, log, _rows(db.execute(_QUERY))


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
def test_rule_time_reads_match_eager_writes(scheduler):
    lazy = _reads_run(False, scheduler)
    assert lazy == _reads_run(True, scheduler)
    reads, _, log, final = lazy
    assert reads and log and final


def test_a_mid_wave_read_sees_pre_wave_values():
    # ``t_reader`` fires in the same Tuesday waves as r0, r3 and r5,
    # after them (arm order); their rows still hold this wave's tick.
    _, mid_wave, _, _ = _reads_run(False, "wheel")
    assert sorted(mid_wave) == [6, 13, 20, 27, 34, 41, 48, 55]
    for tick, rows in mid_wave.items():
        tuesdays = {name: next_fire for name, next_fire in rows
                    if name in ("r0", "r5", "t_reader")}
        assert tuesdays == dict.fromkeys(("r0", "r5", "t_reader"), tick)


def test_save_load_round_trip_with_writes_pending(tmp_path):
    lazy_reads = _reads_run(False, "wheel", tmp_path)[0]
    eager_reads = _reads_run(True, "wheel", tmp_path)[0]
    loaded = [rows for kind, rows in lazy_reads if kind == "loaded"]
    assert loaded and loaded[0]
    assert loaded == [rows for kind, rows in eager_reads
                      if kind == "loaded"]


def test_drop_and_redeclare_while_pending(stack):
    # r1's row goes and a new one comes last, as a delete and an insert
    # made at once would leave it; a vacuum applies the writes too.
    _, db, manager, clock = stack
    DBCron(manager, clock, period=7)
    for name in ("r0", "r1", "r2"):
        manager.declare_temporal(name, expression=TUESDAYS, after=1,
                                 callback=lambda _db, tick: None)
    rule_time = db.relation("rule_time")
    clock.advance(6)
    manager.drop_rule("r1")
    manager.declare_temporal("r1", expression="[5]/DAYS:during:WEEKS",
                             after=7, callback=lambda _db, tick: None)
    assert manager.tables.next_fire_of("r1") == 9
    assert manager.tables._pending
    db.vacuum()
    assert not manager.tables._pending
    assert [(row["rulename"], row["next_fire"])
            for row in rule_time.scan()] == [("r0", 13), ("r2", 13),
                                             ("r1", 9)]
    assert _rows(db.execute(_QUERY)) == [("r0", 13), ("r2", 13),
                                         ("r1", 9)]


@pytest.mark.parametrize("bad", [True, "13", 13.0])
def test_a_non_abstime_next_fire_raises_at_the_write(stack, bad):
    _, db, manager, clock = stack
    manager.declare_temporal("a", expression=TUESDAYS, after=1,
                             callback=lambda _db, tick: None)
    with pytest.raises(DataTypeError):
        manager.tables.set_next_fires([("b", 20), ("a", bad)])
    assert manager.tables.next_fire_of("a") == 6
    assert manager.tables.next_fire_of("b") is None
    assert _rows(db.execute(_QUERY)) == [("a", 6)]


def test_concurrent_reader_never_sees_a_partial_write():
    # 60 Tuesday rules move together in every wave; a reader thread
    # querying RULE_TIME throughout must see them all at one tick each
    # time, never some moved and some not.
    registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                default_horizon_years=3)
    db = Database(calendars=registry)
    manager = RuleManager(db)
    clock = SimulatedClock(now=1)
    cron = DBCron(manager, clock, period=7)
    for i in range(60):
        manager.declare_temporal(f"r{i}", expression=TUESDAYS, after=1,
                                 callback=lambda _db, tick: None)
    seen: list = []
    done = threading.Event()

    def read() -> None:
        while not done.is_set():
            rows = _rows(db.execute(_QUERY))
            seen.append((len(rows), {next_fire for _, next_fire in rows}))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread = threading.Thread(target=read)
    thread.start()
    try:
        for _ in range(200):
            cron.run_until(clock.now + 1)
    finally:
        done.set()
        thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert cron.stats.fires == 60 * 28
    assert len(seen) > 1
    assert all(count == 60 and len(ticks) == 1 for count, ticks in seen), \
        [entry for entry in seen if entry[0] != 60 or len(entry[1]) != 1]
