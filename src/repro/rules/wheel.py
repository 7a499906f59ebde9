"""Hierarchical timing-wheel scheduling for DBCRON at alerting scale.

The legacy DBCRON schedule (a binary heap refilled by periodic RULE_TIME
probes) pays ``O(log n)`` per push/pop *plus* a full catalog probe every
period — per probe it walks the RULE_TIME index, materialises a row dict
per due rule and sorts the result.  At 10⁵–10⁶ registered rules the probe
dominates everything else the daemon does.

This module replaces that schedule with a **hierarchical timing wheel**
(Varghese & Lauck): time is bucketed into slots whose span grows
geometrically per level, so arming a trigger is an O(1) list append and
advancing the clock one tick touches exactly one level-0 slot (plus an
amortised-O(1) cascade when a coarser slot's window opens).  Because the
wheel holds *arbitrarily* far futures — coarse levels plus a far-future
overflow heap — DBCRON no longer needs a probe horizon at all: rule
(re)arms go straight into a bucket and RULE_TIME becomes a durability
and query record, materialised only when read (:mod:`repro.rules.tables`).

One wheel and one lock hold every armed rule; a same-tick wave comes
out in arm order and :class:`~repro.rules.dbcron.DBCron` fires it
sequentially, as the paper's single daemon does.

Staleness is handled by **generation counters**, shared with the fixed
heap schedule (see ``docs/IMPLEMENTATION_NOTES.md`` §11): every push
records a per-name generation, cancel/redefine bumps it, and dead
entries are simply skipped when their slot comes up (lazy deletion —
cancelling never searches a bucket).  A per-name *fired-at* watermark
additionally refuses re-arms at or before the last popped tick, closing
the probe-vs-in-flight-fire double-fire race of the legacy daemon.

All wheel arithmetic happens in linear coordinates (``t - 1`` for
positive axis ticks), removing the axis' zero skip exactly like
:mod:`repro.core.periodic` does.
"""

from __future__ import annotations

import bisect
import heapq
import threading

from repro.core.errors import AxisError

__all__ = ["HierarchicalWheel", "WheelSchedule", "DEFAULT_SLOTS"]

#: Default slot counts per level: 512 one-tick slots, then 64 slots of
#: 512 ticks, then 64 slots of 32 768 ticks — ~2.1M day ticks (~5 700
#: years) of native coverage before the overflow heap is touched.
DEFAULT_SLOTS = (512, 64, 64)


def _lin(tick: int) -> int:
    """Axis tick -> linear coordinate (removes the zero skip)."""
    return tick - 1 if tick > 0 else tick


def _unlin(lin: int) -> int:
    """Linear coordinate -> axis tick."""
    return lin + 1 if lin >= 0 else lin


class HierarchicalWheel:
    """Slotted time, cascading, far-future overflow.

    Entries are opaque ``(seq, name, gen)`` triples keyed by a linear
    tick; the wheel never inspects them beyond the tick.  Not
    thread-safe — the owning :class:`WheelSchedule` serialises access.
    """

    def __init__(self, now_lin: int,
                 slots: tuple[int, ...] = DEFAULT_SLOTS) -> None:
        if len(slots) < 2 or any(s < 2 for s in slots):
            raise AxisError("wheel levels need at least 2 slots each")
        self._slots = tuple(slots)
        #: Per-slot tick span of each level: 1, s0, s0*s1, ...
        self._spans = [1]
        for count in slots[:-1]:
            self._spans.append(self._spans[-1] * count)
        #: Ticks covered by the slotted levels before overflow kicks in.
        self.capacity = self._spans[-1] * slots[-1]
        self._levels: list[list[list]] = [
            [[] for _ in range(count)] for count in slots]
        #: Far-future entries as a (tick, seq, name, gen) min-heap.
        self._overflow: list[tuple] = []
        #: Everything at or before the cursor has been handed out.
        self.cursor = now_lin
        #: Due entries waiting to be popped: tick -> [(seq, name, gen)].
        self._ripe: dict[int, list] = {}
        self._ripe_ticks: list[int] = []
        #: Cascade operations performed (observability).
        self.cascades = 0

    # -- arming ---------------------------------------------------------------

    def push(self, tick_lin: int, seq: int, name: str, gen: int) -> None:
        """File one entry under its linear tick (O(1) amortised)."""
        delta = tick_lin - self.cursor
        if delta <= 0:
            self._ripen(tick_lin, (seq, name, gen))
            return
        if delta >= self.capacity:
            heapq.heappush(self._overflow, (tick_lin, seq, name, gen))
            return
        # delta < capacity guarantees some level accepts the entry:
        # capacity is exactly the last level's span * slot count.
        for level in range(len(self._slots)):
            span = self._spans[level]
            if delta < span * self._slots[level]:
                slot = (tick_lin // span) % self._slots[level]
                self._levels[level][slot].append(
                    (tick_lin, seq, name, gen))
                return

    def _ripen(self, tick_lin: int, entry: tuple) -> None:
        bucket = self._ripe.get(tick_lin)
        if bucket is None:
            self._ripe[tick_lin] = [entry]
            heapq.heappush(self._ripe_ticks, tick_lin)
        else:
            bucket.append(entry)

    # -- advancing ------------------------------------------------------------

    def advance_to(self, now_lin: int) -> None:
        """Move the cursor to ``now_lin``, ripening every due entry.

        Walks tick by tick; each step is one level-0 slot take plus a
        boundary check per coarser level, so a jump of K ticks costs
        O(K) regardless of how many rules are registered.  Raises
        :class:`AxisError` when ``now_lin`` is behind the cursor: what
        has ripened since cannot be un-handed out.
        """
        if now_lin < self.cursor:
            raise AxisError(f"the wheel is at tick {_unlin(self.cursor)}; "
                            f"it cannot pop at {_unlin(now_lin)}")
        while self.cursor < now_lin:
            self.cursor += 1
            cursor = self.cursor
            # Cascade coarse slots whose window opens at this tick,
            # coarsest first so re-pushed entries can land a level down
            # and still be re-examined by the finer cascade below.
            for level in range(len(self._slots) - 1, 0, -1):
                span = self._spans[level]
                if cursor % span == 0:
                    self._cascade(level, (cursor // span)
                                  % self._slots[level])
            if self._overflow and cursor % self._spans[-1] == 0:
                self._drain_overflow()
            slot = self._levels[0][cursor % self._slots[0]]
            if slot:
                self._levels[0][cursor % self._slots[0]] = []
                for tick_lin, seq, name, gen in slot:
                    self._ripen(tick_lin, (seq, name, gen))

    def _cascade(self, level: int, slot: int) -> None:
        entries = self._levels[level][slot]
        if not entries:
            return
        self._levels[level][slot] = []
        self.cascades += 1
        for tick_lin, seq, name, gen in entries:
            self.push(tick_lin, seq, name, gen)

    def _drain_overflow(self) -> None:
        bound = self.cursor + self.capacity
        while self._overflow and self._overflow[0][0] < bound:
            tick_lin, seq, name, gen = heapq.heappop(self._overflow)
            self.push(tick_lin, seq, name, gen)

    # -- popping --------------------------------------------------------------

    def peek_tick(self) -> int | None:
        """The earliest ripe linear tick, or None."""
        return self._ripe_ticks[0] if self._ripe_ticks else None

    def take_tick(self, tick_lin: int) -> list:
        """Remove and return the ripe ``(seq, name, gen)`` entries of a tick."""
        entries = self._ripe.pop(tick_lin, [])
        if self._ripe_ticks and self._ripe_ticks[0] == tick_lin:
            heapq.heappop(self._ripe_ticks)
        return entries

    @property
    def overflow_size(self) -> int:
        return len(self._overflow)


class WheelSchedule:
    """The timing wheel behind :class:`~repro.rules.dbcron.DBCron`.

    Implements the schedule strategy protocol shared with
    :class:`~repro.rules.dbcron.HeapSchedule`:

    * ``schedule(name, tick)`` — arm (idempotent; False when refused),
    * ``schedule_many(arms)`` — arm ``(name, tick)`` pairs in order,
    * ``cancel(name)`` — disarm and forget the fired-at watermark,
    * ``pop_wave(now)`` — the earliest due same-tick wave, as
      ``(tick, name)`` pairs in arm order,
    * ``len()`` — live armed rules.

    Unlike the heap, the wheel holds the *entire* future: DBCRON's probe
    horizon does not apply (``bounded_horizon`` is False) and the only
    RULE_TIME scan ever performed is the one-time synchronisation of
    rules declared before the daemon existed.  One lock guards the
    wheel and its liveness maps, so callers on their own threads may
    arm, cancel and pop concurrently.
    """

    #: The daemon must not filter arms through its probe horizon.
    bounded_horizon = False
    #: The scheduler kind the daemon reports (stats, CLI, probe events).
    kind = "wheel"

    def __init__(self, now: int,
                 slots: tuple[int, ...] = DEFAULT_SLOTS) -> None:
        self._slots = slots
        self._wheel = HierarchicalWheel(_lin(now), slots)
        self._lock = threading.Lock()
        #: Monotonic generation source: every arm gets a fresh value, so
        #: a dead wheel entry can never impersonate a later incarnation.
        #: It doubles as the arm sequence that orders a wave.
        self._gen = 0
        #: Live armament per rule name: (axis tick, generation).  An
        #: entry in the wheel is real only while its (tick, gen) pair is
        #: recorded here — cancel/redefine just re-points or drops the
        #: record and the wheel entry dies in place.
        self._scheduled: dict[str, tuple[int, int]] = {}
        #: Last tick actually handed to the daemon per rule name; arms
        #: at or before it are refused (anti double-fire watermark).
        self._fired_at: dict[str, int] = {}
        #: Live armed rules per axis tick, and those ticks ascending:
        #: the probe's due count reads the front of ``_ticks`` instead
        #: of scanning every armed rule.
        self._tick_counts: dict[int, int] = {}
        self._ticks: list[int] = []

    # -- strategy protocol ----------------------------------------------------

    def schedule(self, name: str, tick: int) -> bool:
        """Arm ``name`` at axis ``tick``; False when dup or watermarked."""
        return self.schedule_many([(name, tick)]) == 1

    def schedule_many(self, arms) -> int:
        """Arm ``(name, tick)`` pairs in order under one lock; count armed.

        Each pair behaves as :meth:`schedule`; generations are allocated
        in the given order, so a re-armed wave keeps its order in later
        waves.  Raises :class:`AxisError` (arming nothing) for a tick 0.
        """
        arms = list(arms)
        if any(tick == 0 for _, tick in arms):
            raise AxisError("tick 0 does not exist")
        armed = 0
        with self._lock:
            for name, tick in arms:
                armed += self._arm(name, tick)
        return armed

    def _arm(self, name: str, tick: int) -> bool:
        """Arm ``name`` at axis ``tick`` (caller holds the lock)."""
        current = self._scheduled.get(name)
        if current is not None and current[0] == tick:
            return False  # already armed at this tick
        fired = self._fired_at.get(name)
        if fired is not None and tick <= fired:
            return False  # stale re-arm at/before the last fire
        if current is not None:
            self._disarm(current[0])
        self._gen += 1
        self._scheduled[name] = (tick, self._gen)
        self._wheel.push(_lin(tick), self._gen, name, self._gen)
        count = self._tick_counts.get(tick)
        if count is None:
            self._tick_counts[tick] = 1
            bisect.insort(self._ticks, tick)
        else:
            self._tick_counts[tick] = count + 1
        return True

    def _disarm(self, tick: int) -> None:
        """Forget one live armament at ``tick`` in the tick counts."""
        count = self._tick_counts[tick] - 1
        if count:
            self._tick_counts[tick] = count
        else:
            del self._tick_counts[tick]
            del self._ticks[bisect.bisect_left(self._ticks, tick)]

    def cancel(self, name: str) -> None:
        """Disarm ``name``; its wheel entries die in place."""
        with self._lock:
            current = self._scheduled.pop(name, None)
            if current is not None:
                self._disarm(current[0])
            self._fired_at.pop(name, None)

    def pop_wave(self, now: int) -> list[tuple[int, str]]:
        """All live entries of the earliest due tick, in arm order.

        Advances the wheel to ``now``, drops dead entries (generation or
        armament mismatch) and returns the earliest ripe tick's entries
        as ``(tick, name)`` sorted by generation — the same
        deterministic order the heap's (tick, gen) comparator yields.
        A ripe tick whose entries all died (cancelled or re-pointed
        rules) is consumed and the next tick examined, so a graveyard
        tick never masks a live later one.  Raises :class:`AxisError`
        when ``now`` is behind the wheel's cursor.
        """
        if now == 0:
            raise AxisError("tick 0 does not exist")
        wheel = self._wheel
        with self._lock:
            wheel.advance_to(_lin(now))
            while (tick_lin := wheel.peek_tick()) is not None:
                tick = _unlin(tick_lin)
                wave: list[tuple[int, str]] = []
                for gen, name, _ in wheel.take_tick(tick_lin):
                    if self._scheduled.get(name) != (tick, gen):
                        continue  # cancelled or re-pointed: dead
                    del self._scheduled[name]
                    self._disarm(tick)
                    self._fired_at[name] = tick
                    wave.append((gen, name))
                if wave:
                    wave.sort()
                    return [(tick, name) for _, name in wave]
                # All entries of this tick were dead: try the next tick.
        return []

    def __len__(self) -> int:
        return len(self._scheduled)

    # -- introspection --------------------------------------------------------

    def due_within(self, now: int, horizon: int) -> int:
        """Live armed rules with tick <= now + horizon (probe report).

        Reads only the ticks at or before the bound in the tick counts —
        proportional to the due ticks, not the rules.
        """
        bound = now + horizon
        with self._lock:
            due = self._ticks[:bisect.bisect_right(self._ticks, bound)]
            return sum(map(self._tick_counts.__getitem__, due))

    def cascades(self) -> int:
        """Cascade operations the wheel has performed."""
        return self._wheel.cascades

    def overflow_size(self) -> int:
        """Far-future entries parked beyond the slotted capacity."""
        return self._wheel.overflow_size

    def stats(self) -> dict:
        """Snapshot for ``Session.rules.stats()`` / the CLI."""
        with self._lock:
            return {
                "kind": self.kind,
                "scheduled": len(self._scheduled),
                "cascades": self._wheel.cascades,
                "overflow": self._wheel.overflow_size,
                "slots": list(self._slots),
            }
