"""DBCRON: the daemon that triggers temporal rules (section 4, Figure 4).

Modelled on the UNIX ``cron`` utility, with a pluggable main-memory
schedule behind one strategy protocol:

* :class:`HeapSchedule` — the paper-faithful design: every ``period``
  time units DBCRON *probes* the RULE_TIME table for rules that trigger
  within the next period and loads them into a binary heap.  It is the
  wheel's parity oracle, injected with ``DBCron(schedule=HeapSchedule())``.
* :class:`~repro.rules.wheel.WheelSchedule` — the default, built when
  ``schedule=`` is None: a hierarchical timing wheel that holds the
  *entire* future, so registration and re-arming go straight into an
  O(1) bucket and the periodic RULE_TIME probe disappears from
  the hot path entirely (it survives only as a cheap due-count report
  plus the one-time sync of rules declared before the daemon existed).

As the clock advances, due entries are popped and fired; each fired rule
computes its next trigger point (via the calendar pipeline), and once
per wave RULE_TIME is updated and one re-arm notification re-enters the
whole wave into the schedule (IMPLEMENTATION_NOTES §11.6).  RULE_TIME is
materialised on read (:mod:`repro.rules.tables`): the wheel never reads
it, while each heap probe first applies its pending writes.

:meth:`DBCron.fire_due` pops all entries sharing the earliest due fire
tick as one *wave* and fires its rules one by one, in arm order, on the
calling thread — one daemon, as in Figure 4.  Processing wave-by-wave
gives a deterministic firing order across and within ticks.

Both schedules share the staleness discipline introduced with the
wheel: every arm carries a generation, redefinition/cancel kills older
entries in place, and a per-rule *fired-at* watermark refuses re-arms
at or before the last popped tick — closing the probe-vs-in-flight-fire
double-fire race of the original daemon (IMPLEMENTATION_NOTES §11).

With periodic compilation on (the registry default), the
per-rule ``next_trigger`` path short-circuits through the compiled
:class:`~repro.core.periodic.PeriodicSet`: re-arming after a fire is
O(log offsets) modular arithmetic with no window materialisation, which
is what gives the wheel O(1) ticks to key on.

Driven by a :class:`~repro.rules.clock.SimulatedClock` for determinism;
``run_until`` steps the clock probe-by-probe the way the real daemon
sleeps between wake-ups.
"""

from __future__ import annotations

import heapq
import threading

from dataclasses import dataclass
from time import perf_counter

from repro.core.errors import AxisError
from repro.core.interval import axis_add
from repro.db.database import Database
from repro.rules.clock import SimulatedClock
from repro.rules.manager import RuleManager
from repro.rules.wheel import WheelSchedule

__all__ = ["DBCron", "HeapSchedule"]


@dataclass
class _Stats:
    probes: int = 0
    fires: int = 0
    reschedules: int = 0
    #: Peak live size of the main-memory schedule (heap or wheel).
    max_heap_size: int = 0


class HeapSchedule:
    """The legacy probe-horizon schedule: a binary heap + liveness maps.

    Implements the same strategy protocol as
    :class:`~repro.rules.wheel.WheelSchedule`; ``bounded_horizon`` is
    True, so the daemon only feeds it arms inside the current probe
    window and must keep probing RULE_TIME to learn about the rest.
    """

    bounded_horizon = True
    #: The scheduler kind the daemon reports (stats, CLI, probe events).
    kind = "heap"

    def __init__(self) -> None:
        #: (fire_tick, generation, rulename) entries.
        self._heap: list[tuple[int, int, str]] = []
        #: Live armament: name -> (tick, generation).
        self._scheduled: dict[str, tuple[int, int]] = {}
        #: Last popped tick per name (anti double-fire watermark).
        self._fired_at: dict[str, int] = {}
        self._gen = 0
        self._lock = threading.RLock()

    def schedule(self, name: str, tick: int) -> bool:
        """Arm ``name`` at ``tick``; False when dup or watermarked."""
        return self.schedule_many([(name, tick)]) == 1

    def schedule_many(self, arms) -> int:
        """Arm ``(name, tick)`` pairs in order under one lock; count armed.

        Raises :class:`AxisError` (arming nothing) for a tick 0.
        """
        arms = list(arms)
        if any(tick == 0 for _, tick in arms):
            raise AxisError("tick 0 does not exist")
        armed = 0
        with self._lock:
            for name, tick in arms:
                current = self._scheduled.get(name)
                if current is not None and current[0] == tick:
                    continue
                fired = self._fired_at.get(name)
                if fired is not None and tick <= fired:
                    continue
                self._gen += 1
                self._scheduled[name] = (tick, self._gen)
                heapq.heappush(self._heap, (tick, self._gen, name))
                armed += 1
        return armed

    def cancel(self, name: str) -> None:
        """Disarm ``name``; its heap entries die in place."""
        with self._lock:
            self._scheduled.pop(name, None)
            self._fired_at.pop(name, None)

    def pop_wave(self, now: int) -> list[tuple[int, str]]:
        """Every live entry of the earliest due tick, in arm order."""
        wave: list[tuple[int, str]] = []
        with self._lock:
            wave_tick = None
            while self._heap and self._heap[0][0] <= now:
                if wave_tick is not None and \
                        self._heap[0][0] != wave_tick:
                    break
                tick, gen, name = heapq.heappop(self._heap)
                if self._scheduled.get(name) != (tick, gen):
                    continue  # dead: dropped, redefined or re-pointed
                del self._scheduled[name]
                self._fired_at[name] = tick
                wave_tick = tick
                wave.append((tick, name))
        return wave

    def __len__(self) -> int:
        return len(self._scheduled)

    def due_within(self, now: int, horizon: int) -> int:
        """Live armed rules with tick <= now + horizon."""
        bound = now + horizon
        with self._lock:
            return sum(1 for tick, _ in self._scheduled.values()
                       if tick <= bound)

    def stats(self) -> dict:
        """Snapshot for ``Session.rules.stats()`` / the CLI."""
        with self._lock:
            return {"kind": self.kind,
                    "scheduled": len(self._scheduled),
                    "heap_entries": len(self._heap)}


class DBCron:
    """The temporal-rule daemon.

    ``schedule`` is the main-memory schedule; None builds the default
    :class:`~repro.rules.wheel.WheelSchedule`.  Pass a
    :class:`HeapSchedule` to run the paper's design.
    """

    def __init__(self, manager: RuleManager, clock: SimulatedClock,
                 period: int = 7, schedule=None) -> None:
        if period < 1:
            raise AxisError("the probe period must be at least 1 tick")
        self.manager = manager
        self.db: Database = manager.db
        self.clock = clock
        self.period = period
        self.sched = schedule if schedule is not None else \
            WheelSchedule(clock.now)
        self._horizon = clock.now  # end of the currently probed window
        self.stats = _Stats()
        manager.clock = clock
        manager.subscribe_schedule(self._on_schedule_change)
        clock.subscribe(self._on_clock)
        if not self.sched.bounded_horizon:
            # One-time sync: rules declared before this daemon existed
            # live only in RULE_TIME; later declarations arrive as
            # schedule-change notifications and never touch the table.
            for name, next_fire in manager.tables.all_next_fires():
                self.sched.schedule(name, next_fire)

    def detach(self) -> None:
        """Unhook from the clock and the manager (daemon replacement)."""
        self.clock.unsubscribe(self._on_clock)
        self.manager.unsubscribe_schedule(self._on_schedule_change)

    # -- probing -----------------------------------------------------------------

    def probe(self) -> int:
        """Refresh the schedule; rules due within the next period.

        Under the heap this is the periodic RULE_TIME scan of Figure 4
        and returns the number of entries loaded.  Under the wheel the
        schedule is already complete — the probe merely reports how many
        armed rules fall inside the window and refreshes the gauges,
        without touching the database.
        """
        now = self.clock.now
        self._horizon = axis_add(now, self.period)
        self.stats.probes += 1
        if self.sched.bounded_horizon:
            loaded = 0
            for fire_tick, name in self.manager.tables.due_within(
                    now, self.period):
                if self.sched.schedule(name, fire_tick):
                    loaded += 1
        else:
            loaded = self.sched.due_within(now, self.period)
        sched_size = len(self.sched)
        self.stats.max_heap_size = max(self.stats.max_heap_size,
                                       sched_size)
        inst = self.db.instrumentation
        inst.metrics.counter("dbcron.probes").inc()
        inst.metrics.gauge("dbcron.heap_size").set(sched_size)
        if self.sched.kind == "wheel":
            inst.metrics.gauge("dbcron.wheel.cascades").set(
                self.sched.cascades())
            inst.metrics.gauge("dbcron.wheel.overflow").set(
                self.sched.overflow_size())
        tracer = inst.tracer
        if tracer is not None:
            tracer.event("dbcron.probe", now=now, loaded=loaded,
                         heap=sched_size, horizon=self._horizon,
                         scheduler=self.sched.kind)
        return loaded

    def _on_schedule_change(self, changes) -> None:
        """Rules were declared/dropped/rescheduled while we are awake."""
        arms = []
        for name, next_fire in changes:
            if next_fire is None:
                self.sched.cancel(name)
            elif not self.sched.bounded_horizon or \
                    next_fire <= self._horizon:
                arms.append((name, next_fire))
            # else: beyond the heap's horizon; a later probe loads it.
        if arms:
            self.sched.schedule_many(arms)

    # -- firing ------------------------------------------------------------------

    def _on_clock(self, now: int) -> None:
        self.fire_due()

    def fire_due(self) -> int:
        """Fire every scheduled entry whose time has come; count fired.

        Due entries are processed in *waves* — all entries sharing the
        earliest due fire tick — and each wave goes through
        :meth:`RuleManager.fire_wave`, which pays the RULE_TIME write
        and the re-arm once per wave; its rules fire in order on this
        thread.  Records per-fire latency (``dbcron.fire_seconds``) and
        how far behind schedule the daemon is running
        (``dbcron.fire_drift_ticks``); with tracing on, each wave gets a
        ``dbcron.wave`` span around one ``rule.fire`` span per fire.
        """
        now = self.clock.now
        inst = self.db.instrumentation
        drift_gauge = inst.metrics.gauge("dbcron.fire_drift_ticks")
        tracer = inst.tracer
        fired = 0
        while True:
            wave = self.sched.pop_wave(now)
            if not wave:
                break
            drift = now - wave[0][0]
            drift_gauge.set(drift)
            if tracer is None:
                fired += self._fire_wave(wave, now, inst)
            else:
                with tracer.span("dbcron.wave", tick=wave[0][0],
                                 rules=len(wave), drift=drift):
                    fired += self._fire_wave(wave, now, inst)
        return fired

    def _fire_wave(self, wave, now: int, inst) -> int:
        """Fire one wave through the manager; count fired.

        Every fire is timed (and traced) individually; metrics and stats
        are folded in once per wave, even when a rule of the wave raised.
        """
        tracer = inst.tracer
        # (next_fire, elapsed seconds) per wave position once fired.
        results: list = [None] * len(wave)

        def dispatch(fire) -> None:
            for position, (tick, name) in enumerate(wave):
                t0 = perf_counter()
                if tracer is None:
                    next_fire = fire(position)
                else:
                    with tracer.span("rule.fire", rule=name, tick=tick,
                                     drift=now - tick) as span:
                        next_fire = fire(position)
                        span.meta["next_fire"] = next_fire
                results[position] = (next_fire, perf_counter() - t0)

        try:
            self.manager.fire_wave(wave, dispatch=dispatch)
        finally:
            fired = self._account(wave, results, inst)
        return fired

    def _account(self, wave, results: list, inst) -> int:
        """Fold one wave's fires into stats and metrics; count fired."""
        metrics = inst.metrics
        fire_hist = metrics.histogram("dbcron.fire_seconds")
        fired = 0
        for (tick, name), result in zip(wave, results):
            if result is None:
                continue  # never reached (the wave was interrupted)
            next_fire, elapsed = result
            fired += 1
            fire_hist.observe(elapsed)
            if next_fire is not None:
                self.stats.reschedules += 1
        if fired:
            metrics.counter("dbcron.fires").inc(fired)
            self.stats.fires += fired
        return fired

    # -- driving ------------------------------------------------------------------

    def run_until(self, tick: int) -> int:
        """Advance the clock to ``tick`` probe-by-probe; count fires.

        Mirrors the daemon loop: probe, sleep one period (advancing the
        clock fires due rules), repeat.
        """
        before = self.stats.fires
        self.probe()
        while self.clock.now < tick:
            step = min(self.period, tick - self.clock.now)
            self.clock.advance(step)
            self.probe()
        self.fire_due()
        return self.stats.fires - before
