"""Concurrency stress tests for the striped, single-flight matcache.

The key guarantees under concurrent access:

* **single-flight** — N threads missing the same (calendar, unit,
  window) key cost exactly one generation; the stats prove it (one
  miss, N-1 hits, no duplicate ``generated_intervals``);
* **stats invariants** — every request is accounted for exactly once:
  ``hits + misses + extensions + uncacheable == requests``;
* **correctness under contention** — whatever mix of slicing, extension
  and installation served a request, the result equals a fresh
  uncached ``CalendarSystem.generate``.

Run with ``PYTHONFAULTHANDLER=1`` in CI so a deadlock dumps stacks
instead of timing out silently.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core import CalendarSystem
from repro.core.matcache import MaterialisationCache

SYSTEM = CalendarSystem.starting("Jan 1 1987")

THREADS = 8


def _hammer(n_threads: int, worker) -> list:
    """Run ``worker(thread_index)`` on n threads; re-raise first failure."""
    barrier = threading.Barrier(n_threads)
    results: list = [None] * n_threads
    errors: list = []

    def run(index: int) -> None:
        try:
            barrier.wait()
            results[index] = worker(index)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def _assert_request_invariant(stats: dict) -> None:
    accounted = (stats["hits"] + stats["misses"] + stats["extensions"]
                 + stats["uncacheable"])
    assert accounted == stats["requests"], stats


class TestSingleFlight:
    def test_identical_misses_generate_once(self):
        """100 iterations: 8 threads, one key — exactly one generation."""
        for _ in range(100):
            cache = MaterialisationCache()
            results = _hammer(
                THREADS,
                lambda i: cache.generate(SYSTEM, "WEEKS", "DAYS",
                                         (1, 400), "cover"))
            stats = cache.stats()
            assert stats["misses"] == 1, stats
            assert stats["extensions"] == 0, stats
            assert stats["hits"] == THREADS - 1, stats
            assert stats["single_flight_waits"] >= 0
            _assert_request_invariant(stats)
            # One generation's worth of intervals, not eight.
            fresh = SYSTEM.generate("WEEKS", "DAYS", (1, 400),
                                    mode="cover")
            assert stats["generated_intervals"] == len(fresh), stats
            first = results[0]
            assert all(r.to_pairs() == first.to_pairs() for r in results)

    def test_waiters_blocked_by_flight_are_counted(self):
        """A slow generation forces waiters onto the single-flight path."""

        class SlowSystem:
            """Proxy that stalls generate() until every thread arrived."""

            epoch = SYSTEM.epoch

            def __init__(self) -> None:
                self.gate = threading.Event()
                self.calls = 0
                self.calls_lock = threading.Lock()

            def day_window(self, lo, hi):
                return SYSTEM.day_window(lo, hi)

            def generate(self, cal, unit, window, mode="clip"):
                with self.calls_lock:
                    self.calls += 1
                self.gate.wait(timeout=5)
                return SYSTEM.generate(cal, unit, window, mode=mode)

        slow = SlowSystem()
        cache = MaterialisationCache()

        def worker(i):
            return cache.generate(slow, "MONTHS", "DAYS", (1, 500),
                                  "cover")

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(THREADS)]
        for thread in threads:
            thread.start()
        # Hold the generation gate until every non-generating thread has
        # registered on the single-flight wait path (the counter is
        # incremented *before* blocking on the flight event).
        import time
        deadline = time.monotonic() + 5
        while cache.stats()["single_flight_waits"] < THREADS - 1:
            if time.monotonic() > deadline:  # pragma: no cover
                break
            time.sleep(0.001)
        slow.gate.set()
        for thread in threads:
            thread.join()
        assert slow.calls == 1
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["single_flight_waits"] >= THREADS - 1
        _assert_request_invariant(stats)

    def test_failed_generation_releases_waiters(self):
        """A generator that raises must not strand single-flight waiters."""

        class FlakySystem:
            epoch = SYSTEM.epoch

            def __init__(self) -> None:
                self.calls = 0
                self.lock = threading.Lock()

            def day_window(self, lo, hi):
                return SYSTEM.day_window(lo, hi)

            def generate(self, cal, unit, window, mode="clip"):
                with self.lock:
                    self.calls += 1
                    call = self.calls
                if call == 1:
                    raise RuntimeError("simulated generation failure")
                return SYSTEM.generate(cal, unit, window, mode=mode)

        flaky = FlakySystem()
        cache = MaterialisationCache()
        outcomes = _hammer(
            4, lambda i: _catch(lambda: cache.generate(
                flaky, "WEEKS", "DAYS", (1, 200), "cover")))
        failures = [o for o in outcomes if isinstance(o, Exception)]
        successes = [o for o in outcomes if not isinstance(o, Exception)]
        assert len(failures) == 1
        assert len(successes) == 3
        fresh = SYSTEM.generate("WEEKS", "DAYS", (1, 200), mode="cover")
        assert all(s.to_pairs() == fresh.to_pairs() for s in successes)


def _catch(fn):
    try:
        return fn()
    except Exception as exc:
        return exc


class TestOverlappingWindowStress:
    def test_stress_overlapping_windows(self):
        """8 threads × random overlapping windows: invariants hold."""
        cache = MaterialisationCache()
        grans = ["DAYS", "WEEKS", "MONTHS"]
        requests_per_thread = 40

        def worker(index: int):
            rng = random.Random(1000 + index)
            out = []
            for _ in range(requests_per_thread):
                gran = rng.choice(grans)
                lo = rng.randint(1, 2000)
                hi = lo + rng.randint(0, 900)
                mode = rng.choice(["clip", "cover"])
                out.append(((gran, lo, hi, mode),
                            cache.generate(SYSTEM, gran, "DAYS",
                                           (lo, hi), mode)))
            return out

        results = _hammer(THREADS, worker)
        stats = cache.stats()
        assert stats["requests"] == THREADS * requests_per_thread
        assert stats["uncacheable"] == 0
        _assert_request_invariant(stats)
        # Spot-check served results against fresh generation.
        rng = random.Random(7)
        flat = [pair for per_thread in results for pair in per_thread]
        for (gran, lo, hi, mode), served in rng.sample(flat, 25):
            fresh = SYSTEM.generate(gran, "DAYS", (lo, hi), mode=mode)
            assert served.to_pairs() == fresh.to_pairs()
            assert served.labels == fresh.labels

    def test_stress_with_eviction_pressure(self):
        """A tiny cache under contention still serves correct results."""
        cache = MaterialisationCache(maxsize=2)
        grans = ["DAYS", "WEEKS", "MONTHS", "YEARS"]

        def worker(index: int):
            rng = random.Random(2000 + index)
            for _ in range(30):
                gran = rng.choice(grans)
                lo = rng.randint(1, 1500)
                hi = lo + rng.randint(0, 400)
                served = cache.generate(SYSTEM, gran, "DAYS", (lo, hi),
                                        "cover")
                fresh = SYSTEM.generate(gran, "DAYS", (lo, hi),
                                        mode="cover")
                assert served.to_pairs() == fresh.to_pairs()
            return True

        assert all(_hammer(THREADS, worker))
        stats = cache.stats()
        _assert_request_invariant(stats)
        assert stats["entries"] <= 2

    def test_memo_concurrent_access(self):
        """The generic memo stays consistent under parallel put/get."""
        cache = MaterialisationCache(memo_maxsize=64)

        def worker(index: int):
            rng = random.Random(3000 + index)
            for i in range(200):
                key = ("k", rng.randint(0, 100))
                value = cache.memo_get(key)
                if value is not None:
                    assert value == key[1]
                else:
                    cache.memo_put(key, key[1])
            return True

        assert all(_hammer(THREADS, worker))
        assert cache.stats()["memo_entries"] <= 64
