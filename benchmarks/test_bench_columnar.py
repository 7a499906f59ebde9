"""Columnar sweep kernels: foreach, set operations and retained memory.

Times the hot kernels over column-backed calendars (the only order-1
representation) at the sizes of the original columnar rows: 1k and 20k
day members for ``foreach``, 30 years of day tiles for the set
operations.  Rows land in BENCH_core.json via :func:`record_benchmark`
under the ``columnar/`` prefix.

A final row records the retained bytes of a 100k-interval calendar
(tracemalloc): two int64 lanes, 16 bytes per interval.
"""

from __future__ import annotations

import gc
import time
import tracemalloc

from conftest import record_benchmark

from repro.core import Calendar, Interval, foreach

#: Days in the 30-year benchmark horizon (1987..2016, matching the
#: registry fixtures' generation span).
DAYS_30Y = 10_958


def _time(fn, rounds: int = 5, warmup: int = 1) -> list[float]:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return samples


def _day_pairs(n):
    return [(d, d) for d in range(1, n + 1)]


def _week_pairs(n_days):
    return [(lo, lo + 6) for lo in range(1, n_days - 5, 7)]


class TestForeachSweeps:
    def test_foreach_during(self):
        for size in (1_000, 20_000):
            days = Calendar.from_intervals(_day_pairs(size))
            weeks = Calendar.from_intervals(_week_pairs(size))
            grouped = foreach("during", days, weeks)
            assert len(grouped) == len(weeks)
            record_benchmark(f"columnar/foreach_during_{size}",
                             _time(lambda: foreach("during", days, weeks)),
                             intervals=size)

    def test_foreach_overlaps(self):
        for size in (1_000, 20_000):
            days = Calendar.from_intervals(_day_pairs(size))
            ref = Interval(size // 4, size // 2)
            assert len(foreach("overlaps", days, ref)) == \
                size // 2 - size // 4 + 1
            record_benchmark(f"columnar/foreach_overlaps_{size}",
                             _time(lambda: foreach("overlaps", days, ref)),
                             intervals=size)


class TestSetOperationSweeps:
    """Union/difference/intersection over 30 years of day tiles."""

    def test_set_operations(self):
        odd = Calendar.from_intervals(_day_pairs(DAYS_30Y)[0::2])
        even = Calendar.from_intervals(_day_pairs(DAYS_30Y)[1::2])
        days = Calendar.from_intervals(_day_pairs(DAYS_30Y))
        holidays = Calendar.from_intervals(
            [(d, d) for d in range(100, DAYS_30Y, 97)])
        weeks = Calendar.from_intervals(_week_pairs(DAYS_30Y))
        assert len(odd + even) == DAYS_30Y
        assert len(days - holidays) == DAYS_30Y - len(holidays)
        for name, fn in (("union", lambda: odd + even),
                         ("difference", lambda: days - holidays),
                         ("intersection", lambda: days & weeks)):
            record_benchmark(f"columnar/{name}_30y", _time(fn),
                             intervals=DAYS_30Y)


class TestMemoryFootprint:
    def test_calendar_100k_retained_bytes(self):
        """Two int64 lanes at 100k intervals."""
        pairs = _day_pairs(100_000)
        gc.collect()
        tracemalloc.start()
        t0 = time.perf_counter()
        cal = Calendar.from_intervals(pairs)
        elapsed = time.perf_counter() - t0
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(cal) == 100_000
        record_benchmark("columnar/memory_100k_intervals", [elapsed],
                         intervals=100_000, columnar_bytes=retained)
        # Lanes store 16 bytes per interval; anything near the ~56 bytes
        # of an Interval object means the build materialised.
        assert retained <= 20 * 100_000
