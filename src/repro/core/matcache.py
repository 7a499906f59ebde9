"""A process-wide, thread-safe materialisation cache with window subsumption.

The paper's evaluation-plan section calls for *shared-calendar caching*:
a calendar "encountered more than once" should be generated once.  The
scattered per-context caches only share exact-key repeats — any narrower
or shifted window misses and re-runs :meth:`CalendarSystem.generate`
from civil-date arithmetic.  This module centralises materialisation:

* One :class:`MaterialisationCache` entry per ``(system epoch, calendar
  granularity, unit granularity)`` stores the **widest window generated
  so far** in canonical *cover* mode, together with columnar ``lo``/``hi``
  endpoint arrays.
* A request for any **contained sub-window** is served by binary-search
  slicing the columnar arrays — no civil-date arithmetic at all.  Both
  ``cover`` and ``clip`` requests are served from the same entry: a
  clip materialisation equals the cover materialisation with the two
  boundary elements intersected against the window (the unit iteration,
  the overlap condition and the labels are identical in
  :mod:`repro.core.basis`).
* A **partially covering** request generates only the uncovered
  extension(s) and merges them into the entry, instead of regenerating
  the whole window.  This is sound because every basic-calendar tiling
  is *window-independent*: week/month/year boundaries are fixed by the
  civil calendar, so overlapping windows always agree on shared units
  (the unit straddling the old boundary is deduplicated by its ``lo``).

Concurrency model (see docs/IMPLEMENTATION_NOTES.md §7):

* Entries are **striped** over ``stripes`` independently locked shards
  keyed by ``hash(key) % stripes``, so concurrent requests for distinct
  calendars never contend.  A plain mutex per stripe (not an RW lock) is
  deliberate: even "read" hits mutate shared state — LRU recency, the
  per-entry served memo — so a reader/writer split would buy nothing.
* Misses are **single-flight**: the first thread to miss a key registers
  an in-flight marker and generates outside the stripe lock; every other
  thread requesting the same key waits on the marker's event and then
  retries the hit path, so N concurrent identical misses cost exactly
  one :meth:`CalendarSystem.generate` call.  The marker is cleared in a
  ``finally`` so waiters always make progress, even when the generating
  thread raises.
* Eviction keeps the **global** LRU semantics of the unstriped cache:
  every entry carries a monotonically increasing recency stamp; when the
  total entry count exceeds ``maxsize``, an eviction sweep (serialised
  by a dedicated lock, taking one stripe lock at a time) pops the entry
  with the globally smallest stamp.
* Lock-acquisition waits are measured: a non-blocking ``acquire(False)``
  fast path keeps the uncontended cost at one extra branch, and only
  genuinely contended acquisitions are timed into the
  ``matcache.lock_wait_seconds`` histogram (surfaced by ``\\cache`` as
  the *contention* line).

Entries are LRU-bounded; ``maxsize=0`` disables the cache entirely (every
request falls through to ``generate``), which keeps the cache a *pure*
optimisation.  A second, generic LRU memo (:meth:`memo_get` /
:meth:`memo_put`) backs higher layers — registry expression/plan caches,
rule next-fire probes — whose keys embed the registry version so stale
entries are never served and old versions eventually age out.

The process-wide default instance is reachable via
:func:`get_default_cache`; the environment variable
``REPRO_MATCACHE_SIZE`` sizes it (``0`` disables it).
"""

from __future__ import annotations

import bisect
import itertools
import os
import threading

from collections import OrderedDict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

from repro.core import columnar
from repro.core.calendar import Calendar
from repro.core.errors import ConfigurationError
from repro.core.granularity import Granularity
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "MaterialisationCache",
    "get_default_cache",
    "set_default_cache",
]


def _axis_dec(t: int) -> int:
    """``t - 1`` on the zero-skipping axis."""
    return t - 1 if t - 1 != 0 else -1


def _axis_inc(t: int) -> int:
    """``t + 1`` on the zero-skipping axis."""
    return t + 1 if t + 1 != 0 else 1


@dataclass
class _Entry:
    """The widest cover-mode materialisation generated so far for one key.

    ``los``/``his`` *are* the calendar's endpoint lanes (no side-car
    copy) and :meth:`serve` answers a contained sub-window with a
    zero-copy column slice — clip-mode requests patch at most the two
    boundary endpoints.
    """

    window: tuple[int, int]
    calendar: Calendar                      #: cover mode over ``window``
    los: Sequence[int]                      #: the calendar's lo lane
    his: Sequence[int]                      #: the calendar's hi lane
    #: Small memo of recently served sub-window calendars, so repeated
    #: identical requests return the *same* object (letting per-Calendar
    #: memos such as lane flags be shared across contexts).
    served: OrderedDict = field(default_factory=OrderedDict)
    #: Global LRU recency stamp (monotonic across all stripes).
    stamp: int = 0

    _SERVED_MAX = 32

    @classmethod
    def build(cls, window: tuple[int, int], calendar: Calendar) -> "_Entry":
        cols = calendar.columns
        return cls(window, calendar, cols.los, cols.his)

    def covers(self, lo: int, hi: int) -> bool:
        return self.window[0] <= lo and hi <= self.window[1]

    def near(self, lo: int, hi: int) -> bool:
        """True when ``[lo, hi]`` overlaps or is adjacent to the window."""
        wlo, whi = self.window
        return lo <= _axis_inc(whi) and hi >= _axis_dec(wlo)

    def slice_range(self, lo: int, hi: int) -> tuple[int, int]:
        """Index range of elements overlapping ``[lo, hi]`` (cover set)."""
        return (bisect.bisect_left(self.his, lo),
                bisect.bisect_right(self.los, hi))

    def serve(self, lo: int, hi: int, mode: str) -> Calendar:
        memo_key = (lo, hi, mode)
        cached = self.served.get(memo_key)
        if cached is not None:
            self.served.move_to_end(memo_key)
            return cached
        start, end = self.slice_range(lo, hi)
        source = self.calendar
        out = source.columns.slice(start, end)
        if mode == "clip":
            # Tilings are disjoint and sorted, so only the two
            # boundary endpoints can poke outside the window.
            out = columnar.clip_cover(out, lo, hi)
        labels = None
        if source.labels is not None:
            labels = source.labels[start:end]
        result = Calendar._from_columns(out, source.granularity, labels)
        self.served[memo_key] = result
        if len(self.served) > self._SERVED_MAX:
            self.served.popitem(last=False)
        return result


class _Flight:
    """Single-flight marker: one in-progress generation for one key."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = threading.Event()


class _Stripe:
    """One shard of the entry map with its own lock and in-flight set."""

    __slots__ = ("lock", "entries", "inflight", "index")

    def __init__(self, index: int = 0) -> None:
        self.lock = threading.Lock()
        self.entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self.inflight: dict[tuple, _Flight] = {}
        self.index = index


class MaterialisationCache:
    """Thread-safe LRU cache of basic-calendar materialisations.

    ``maxsize`` bounds the **total** number of ``(epoch, calendar, unit)``
    entries across all stripes (0 disables caching), ``memo_maxsize``
    bounds the generic memo used by higher layers, ``max_entry_elements``
    caps how far a single entry may grow through extension merging before
    it is replaced, and ``stripes`` sets the number of independently
    locked shards.

    Counters live in a :class:`~repro.obs.metrics.MetricsRegistry`
    (``matcache.*`` instruments, one registry per cache unless one is
    shared in) with hit/miss/extension latencies recorded as histograms;
    :meth:`stats` is the backwards-compatible adapter that renders them
    under the historical flat key names.
    """

    #: Counter names, identical to the historical ad-hoc stats keys plus
    #: the concurrency counters added with the striped design.
    _STAT_KEYS = ("hits", "misses", "extensions", "evictions",
                  "uncacheable", "served_intervals",
                  "generated_intervals", "memo_hits", "memo_misses",
                  "requests", "single_flight_waits", "lock_contention",
                  "narrow_bypass")

    def __init__(self, maxsize: int = 256, memo_maxsize: int = 2048,
                 max_entry_elements: int = 1_000_000,
                 metrics: MetricsRegistry | None = None,
                 stripes: int = 8, stripe_metrics: bool = True) -> None:
        if maxsize < 0 or memo_maxsize < 0:
            raise ConfigurationError("cache sizes must be >= 0")
        if stripes < 1:
            raise ConfigurationError("the cache needs at least 1 stripe")
        self.maxsize = maxsize
        self.memo_maxsize = memo_maxsize if maxsize else 0
        self.max_entry_elements = max_entry_elements
        self._stripes = tuple(_Stripe(i) for i in range(stripes))
        self._memo: OrderedDict = OrderedDict()
        self._memo_lock = threading.Lock()
        self._evict_lock = threading.Lock()
        self._ticker = itertools.count(1)
        #: Backing metrics registry (private unless one is shared in).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._counters = {name: self.metrics.counter(f"matcache.{name}")
                          for name in self._STAT_KEYS}
        self._latency = {
            "hit": self.metrics.histogram("matcache.hit_seconds"),
            "miss": self.metrics.histogram("matcache.miss_seconds"),
            "extension": self.metrics.histogram(
                "matcache.extension_seconds"),
            "lock_wait": self.metrics.histogram(
                "matcache.lock_wait_seconds"),
        }
        #: Per-stripe labelled hit/miss counters, pre-bound as tuples
        #: indexed by stripe number so the hot path pays one tuple index
        #: plus a plain Counter.inc — no family resolution per request.
        #: ``stripe_metrics=False`` (the benchmark baseline) skips them.
        if stripe_metrics:
            hits = self.metrics.counter(
                "matcache.stripe.hits", "Cache hits per stripe",
                labels=("stripe",), max_series=max(stripes + 1, 16))
            misses = self.metrics.counter(
                "matcache.stripe.misses", "Cache misses per stripe",
                labels=("stripe",), max_series=max(stripes + 1, 16))
            self._stripe_hits = tuple(hits.labels(str(i))
                                      for i in range(stripes))
            self._stripe_misses = tuple(misses.labels(str(i))
                                        for i in range(stripes))
        else:
            self._stripe_hits = None
            self._stripe_misses = None

    @property
    def enabled(self) -> bool:
        """False when the cache was built with ``maxsize=0``."""
        return self.maxsize > 0

    # -- locking ---------------------------------------------------------------

    def _acquire(self, lock: threading.Lock) -> None:
        """Acquire ``lock``, timing only genuinely contended waits."""
        if lock.acquire(False):
            return
        t0 = perf_counter()
        lock.acquire()
        self._counters["lock_contention"].inc()
        self._latency["lock_wait"].observe(perf_counter() - t0)

    def _stripe_of(self, key: tuple) -> _Stripe:
        return self._stripes[hash(key) % len(self._stripes)]

    # -- materialisation -------------------------------------------------------

    def generate(self, system, cal: "str | Granularity",
                 unit: "str | Granularity", window: tuple,
                 mode: str = "clip") -> Calendar:
        """``system.generate(...)`` through the cache.

        Serves contained windows by slicing, partially covered windows by
        extension-merging, and everything the cache cannot represent
        (dates it cannot coerce, inverted or zero-touching windows,
        unknown modes, a disabled cache) by falling through to
        :meth:`~repro.core.basis.CalendarSystem.generate` unchanged.

        Thread-safe: concurrent hits on distinct keys proceed on separate
        stripes; concurrent misses on the *same* key are deduplicated to
        a single generation (single-flight), with waiters re-entering the
        hit path once the generator finishes.
        """
        t0 = perf_counter()
        start, end = window
        if not self.enabled:
            return self._direct(system, cal, unit, (start, end), mode)
        cal_g = Granularity.parse(cal)
        unit_g = Granularity.parse(unit)
        if not (isinstance(start, int) and isinstance(end, int)) \
                and unit_g == Granularity.DAYS:
            # Day windows given as dates coerce exactly to tick windows.
            try:
                start, end = system.day_window(start, end)
            except Exception:
                return self._direct(system, cal, unit, window, mode)
        if not (isinstance(start, int) and isinstance(end, int)) \
                or start == 0 or end == 0 or start > end \
                or mode not in ("clip", "cover"):
            return self._direct(system, cal, unit, (start, end), mode)
        key = (system.epoch.date, cal_g, unit_g)
        stripe = self._stripe_of(key)
        self._counters["requests"].inc()
        while True:
            self._acquire(stripe.lock)
            try:
                entry = stripe.entries.get(key)
                if entry is not None and entry.covers(start, end):
                    stripe.entries.move_to_end(key)
                    entry.stamp = next(self._ticker)
                    self._counters["hits"].inc()
                    if self._stripe_hits is not None:
                        self._stripe_hits[stripe.index].inc()
                    result = entry.serve(start, end, mode)
                    self._counters["served_intervals"].inc(len(result))
                    self._latency["hit"].observe(perf_counter() - t0)
                    return result
                flight = stripe.inflight.get(key)
                if flight is None:
                    # Claim the generation; ``entry`` (possibly None or
                    # partially covering) is ours alone to extend/replace
                    # until the flight is cleared.
                    claimed = _Flight()
                    stripe.inflight[key] = claimed
                    break
            finally:
                stripe.lock.release()
            # Another thread is generating this key: wait, then retry
            # the hit path against whatever it installed.
            self._counters["single_flight_waits"].inc()
            flight.event.wait()
        try:
            if entry is not None and entry.near(start, end):
                result = self._extend(system, stripe, key, entry,
                                      start, end, mode)
                if result is not None:
                    self._latency["extension"].observe(perf_counter() - t0)
                    return result
            result = self._install(system, stripe, key, cal_g, unit_g,
                                   start, end, mode)
            self._latency["miss"].observe(perf_counter() - t0)
            return result
        finally:
            self._acquire(stripe.lock)
            try:
                stripe.inflight.pop(key, None)
            finally:
                stripe.lock.release()
            claimed.event.set()

    def _direct(self, system, cal, unit, window, mode) -> Calendar:
        self._counters["uncacheable"].inc()
        self._counters["requests"].inc()
        return system.generate(cal, unit, window, mode=mode)

    def _install(self, system, stripe: _Stripe, key, cal_g, unit_g,
                 start, end, mode) -> Calendar:
        """Full miss: generate the window in cover mode and store it.

        Runs with the single-flight claim held, so no other thread can
        install or extend this key concurrently; generation happens
        outside the stripe lock.
        """
        cover = system.generate(cal_g, unit_g, (start, end), mode="cover")
        entry = _Entry.build((start, end), cover)
        self._acquire(stripe.lock)
        try:
            self._counters["misses"].inc()
            if self._stripe_misses is not None:
                self._stripe_misses[stripe.index].inc()
            self._counters["generated_intervals"].inc(len(cover))
            current = stripe.entries.get(key)
            # Keep whichever window is wider (an eviction may have raced
            # us, but a competing installer cannot — we hold the flight).
            # A *narrower* disjoint request — typical for a streaming
            # pipeline's per-reference windows — is served from its own
            # materialisation without evicting the wider shared entry
            # (window-truncated insertion would otherwise thrash it).
            if current is not None and not current.covers(start, end) and \
                    (current.window[1] - current.window[0]) > (end - start):
                self._counters["narrow_bypass"].inc()
                current.stamp = next(self._ticker)
                result = entry.serve(start, end, mode)
                self._counters["served_intervals"].inc(len(result))
            else:
                if current is None or not current.covers(start, end):
                    stripe.entries[key] = entry
                    stripe.entries.move_to_end(key)
                    current = entry
                entry.stamp = current.stamp = next(self._ticker)
                result = current.serve(start, end, mode)
                self._counters["served_intervals"].inc(len(result))
        finally:
            stripe.lock.release()
        self._evict_overflow()
        return result

    def _extend(self, system, stripe: _Stripe, key, entry: _Entry,
                lo: int, hi: int, mode: str) -> Calendar | None:
        """Generate only the uncovered side(s) and merge into the entry.

        Returns the served calendar, or None when the merged entry would
        exceed the per-entry element cap (the caller then replaces the
        entry instead).  Like :meth:`_install`, runs under the
        single-flight claim with generation outside the stripe lock.
        """
        wlo, whi = entry.window
        left = right = None
        if lo < wlo:
            left = system.generate(
                key[1], key[2], (lo, _axis_dec(wlo)), mode="cover")
        if hi > whi:
            right = system.generate(
                key[1], key[2], (_axis_inc(whi), hi), mode="cover")
        old = entry.calendar
        merged = self._merge_extension(old, left, right)
        if merged is None:
            return None
        generated = (len(left) if left is not None else 0) + \
            (len(right) if right is not None else 0)
        new_entry = _Entry.build((min(lo, wlo), max(hi, whi)), merged)
        self._acquire(stripe.lock)
        try:
            self._counters["extensions"].inc()
            self._counters["generated_intervals"].inc(generated)
            new_entry.stamp = next(self._ticker)
            stripe.entries[key] = new_entry
            stripe.entries.move_to_end(key)
            result = new_entry.serve(lo, hi, mode)
            self._counters["served_intervals"].inc(len(result))
        finally:
            stripe.lock.release()
        self._evict_overflow()
        return result

    def _merge_extension(self, old: Calendar, left: "Calendar | None",
                         right: "Calendar | None") -> Calendar | None:
        """Merge freshly generated extension(s) around the old cover.

        The unit straddling the old window boundary appears whole in both
        materialisations; a single copy is kept (deduplicated by ``lo``).
        Returns None when the merged entry would exceed the per-entry
        element cap.  The merge is lane-wise (one buffer concatenation,
        no ``Interval`` objects).
        """
        old_cols = old.columns
        n_old = len(old_cols)
        parts = [old_cols]
        label_parts = [old.labels or ()]
        if left is not None:
            first_lo = old_cols.los[0] if n_old else None
            kept, labels = self._trim(left, first_lo, before=True)
            parts.insert(0, kept)
            label_parts.insert(0, labels)
        if right is not None:
            last_lo = old_cols.los[-1] if n_old else None
            kept, labels = self._trim(right, last_lo, before=False)
            parts.append(kept)
            label_parts.append(labels)
        if sum(len(p) for p in parts) > self.max_entry_elements:
            return None
        labels = None
        if old.labels is not None:
            labels = tuple(lab for part in label_parts for lab in part)
        return Calendar._from_columns(columnar.concat_columns(parts),
                                      old.granularity, labels)

    @staticmethod
    def _trim(side: Calendar, bound: "int | None", before: bool):
        """``side``'s units strictly before (or after) the old cover's
        boundary ``lo``, with their labels; all of them when the old
        cover is empty."""
        cols = side.columns
        n = len(cols)
        if bound is None:
            idx = range(n)
            kept = cols
        elif cols.lo_sorted:
            if before:
                k = bisect.bisect_left(cols.los, bound)
                idx = range(k)
                kept = cols.slice(0, k)
            else:
                k = bisect.bisect_right(cols.los, bound)
                idx = range(k, n)
                kept = cols.slice(k, n)
        else:
            idx = [i for i in range(n)
                   if (cols.los[i] < bound if before
                       else cols.los[i] > bound)]
            kept = cols.take(idx)
        return kept, tuple(side.label_of(i) for i in idx)

    def _evict_overflow(self) -> None:
        """Evict globally least-recently-stamped entries past ``maxsize``.

        The unlocked pre-check keeps the common (under-capacity) case at
        one sum; the sweep itself is serialised by ``_evict_lock`` and
        takes one stripe lock at a time (never two), so it cannot
        deadlock against the request path.
        """
        if sum(len(s.entries) for s in self._stripes) <= self.maxsize:
            return
        with self._evict_lock:
            while True:
                total = 0
                oldest_stamp = None
                oldest_stripe = None
                for stripe in self._stripes:
                    self._acquire(stripe.lock)
                    try:
                        total += len(stripe.entries)
                        # The OrderedDict front is the stripe's LRU entry,
                        # so its stamp is the stripe minimum.
                        if stripe.entries:
                            front = next(iter(stripe.entries.values()))
                            if oldest_stamp is None or \
                                    front.stamp < oldest_stamp:
                                oldest_stamp = front.stamp
                                oldest_stripe = stripe
                    finally:
                        stripe.lock.release()
                if total <= self.maxsize or oldest_stripe is None:
                    return
                self._acquire(oldest_stripe.lock)
                try:
                    if oldest_stripe.entries:
                        oldest_stripe.entries.popitem(last=False)
                        self._counters["evictions"].inc()
                finally:
                    oldest_stripe.lock.release()

    # -- generic memo (registry/rule layers) -----------------------------------

    _MISSING = object()

    def memo_get(self, key):
        """The memoised value for ``key``, or None when absent/disabled."""
        if self.memo_maxsize == 0:
            return None
        with self._memo_lock:
            value = self._memo.get(key, self._MISSING)
            if value is self._MISSING:
                self._counters["memo_misses"].inc()
                return None
            self._counters["memo_hits"].inc()
            self._memo.move_to_end(key)
            return value

    def memo_put(self, key, value) -> None:
        """Memoise ``value`` under ``key`` (LRU-bounded; no-op if disabled)."""
        if self.memo_maxsize == 0:
            return
        with self._memo_lock:
            self._memo[key] = value
            self._memo.move_to_end(key)
            while len(self._memo) > self.memo_maxsize:
                self._memo.popitem(last=False)

    # -- stats / lifecycle ----------------------------------------------------

    def stats(self) -> dict:
        """A snapshot of the counters, plus the derived hit ratio.

        The adapter over the metrics-backed instruments: historical flat
        key names are preserved (``hits``, ``misses``, …) and latency
        histograms are added under ``*_seconds`` keys as summary dicts.
        """
        out = {name: counter.value
               for name, counter in self._counters.items()}
        lookups = out["hits"] + out["misses"] + out["extensions"]
        entries = 0
        for stripe in self._stripes:
            with stripe.lock:
                entries += len(stripe.entries)
        out["entries"] = entries
        with self._memo_lock:
            out["memo_entries"] = len(self._memo)
        out["hit_ratio"] = out["hits"] / lookups if lookups else 0.0
        for kind, histogram in self._latency.items():
            out[f"{kind}_seconds"] = histogram.summary()
        return out

    def reset_stats(self) -> None:
        """Zero every counter and latency histogram (entries are kept)."""
        for counter in self._counters.values():
            counter.reset()
        for histogram in self._latency.values():
            histogram.reset()
        if self._stripe_hits is not None:
            for child in self._stripe_hits + self._stripe_misses:
                child.reset()

    def clear(self) -> None:
        """Drop every entry and memo value (counters are kept).

        In-flight generations are left to finish: their markers stay so
        waiters still make progress; the freshly generated entries are
        simply installed into the emptied map.
        """
        for stripe in self._stripes:
            with stripe.lock:
                stripe.entries.clear()
        with self._memo_lock:
            self._memo.clear()


# -- process-wide default -----------------------------------------------------

_default_cache: MaterialisationCache | None = None
_default_lock = threading.Lock()


def _default_maxsize() -> int:
    try:
        return int(os.environ.get("REPRO_MATCACHE_SIZE", "256"))
    except ValueError:
        return 256


def get_default_cache() -> MaterialisationCache:
    """The process-wide cache (created on first use; see module docs).

    Its counters live in the process-wide instrumentation bundle's
    metrics registry, so ``\\metrics`` and JSON exports include them.
    """
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            from repro.obs.instrument import get_default_instrumentation
            _default_cache = MaterialisationCache(
                maxsize=_default_maxsize(),
                metrics=get_default_instrumentation().metrics)
        return _default_cache


def set_default_cache(cache: MaterialisationCache
                      ) -> MaterialisationCache | None:
    """Swap the process-wide cache; returns the previous one."""
    global _default_cache
    with _default_lock:
        previous = _default_cache
        _default_cache = cache
        return previous
