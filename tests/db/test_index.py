"""Unit tests for ordered indexes and calendar probes."""

import sys
import threading

import pytest

from repro.core import Calendar
from repro.db import CalendarProbe, ExecutionError, OrderedIndex


def row(tid, value):
    return {"_tid": tid, "day": value}


class TestOrderedIndex:
    def test_insert_lookup_eq(self):
        index = OrderedIndex("day")
        for tid, value in [(1, 5), (2, 3), (3, 5)]:
            index.insert(row(tid, value))
        assert sorted(index.lookup_eq(5)) == [1, 3]
        assert index.lookup_eq(4) == []

    def test_remove(self):
        index = OrderedIndex("day")
        index.insert(row(1, 5))
        index.insert(row(2, 5))
        index.remove(row(1, 5))
        assert index.lookup_eq(5) == [2]

    def test_none_values_skipped(self):
        index = OrderedIndex("day")
        index.insert(row(1, None))
        assert len(index) == 0
        index.remove(row(1, None))  # no error

    def test_range_lookup(self):
        index = OrderedIndex("day")
        for tid, value in enumerate([10, 20, 30, 40], start=1):
            index.insert(row(tid, value))
        assert index.lookup_range(lo=20, hi=30) == [2, 3]
        assert index.lookup_range(hi=25) == [1, 2]
        assert index.lookup_range(lo=25) == [3, 4]
        assert index.lookup_range(lo=20, hi=30, lo_inclusive=False) == [3]
        assert index.lookup_range(lo=20, hi=30, hi_inclusive=False) == [2]

    def test_rebuild(self):
        index = OrderedIndex("day")
        index.rebuild([row(2, 9), row(1, 3)])
        assert index.lookup_range() == [1, 2]

    def test_equal_keys_keep_tid_order(self):
        index = OrderedIndex("day")
        for tid in (3, 1, 2):
            index.insert(row(tid, 5))
        assert index.lookup_eq(5) == [1, 2, 3]
        index.remove(row(2, 5))
        index.remove(row(9, 5))  # absent: no error, nothing dropped
        assert index.lookup_eq(5) == [1, 3]

    def test_lookup_runs(self):
        index = OrderedIndex("day")
        index.rebuild([row(tid, value) for tid, value in
                       enumerate([-2, 1, 3, 3, 7, 9], start=1)])
        assert sorted(index.lookup_runs([(-5, -1), (2, 3), (8, 20)])) \
            == [1, 3, 4, 6]
        assert index.lookup_runs([(4, 6)]) == []

    def test_count_runs_reads_per_key_counts_kept_in_step(self):
        index = OrderedIndex("day")
        index.rebuild([row(tid, value) for tid, value in
                       enumerate([-2, 1, 3, 3, 7, 9], start=1)])
        runs = [(-5, -1), (2, 3), (8, 20)]
        assert index.count_runs(runs) == 4
        index.insert(row(7, 3))
        index.remove(row(1, -2))
        assert index.count_runs(runs) == len(index.lookup_runs(runs)) == 4
        # A key past the counted ones drops the counts; the next count
        # counts afresh.
        index.insert(row(8, 12))
        assert index.count_runs([(8, 50)]) == 2

    def test_count_runs_declines_sparse_or_non_integer_keys(self):
        index = OrderedIndex("day")
        assert index.count_runs([(0, 5)]) is None
        index.rebuild([row(1, 0), row(2, 1000)])
        assert index.count_runs([(0, 5)]) is None
        index.rebuild([row(1, 1.5), row(2, 2), row(3, 3)])
        assert index.count_runs([(0, 5)]) is None
        index.rebuild([row(1, 1), row(2, 2), row(3, 3)])
        assert index.count_runs([(0, 5)]) == 3
        index.insert(row(4, True))
        assert index.count_runs([(0, 5)]) is None


def lanes_probe(calendar):
    """A probe answering from the calendar's lanes alone."""
    return CalendarProbe(lambda: calendar)


def points(runs):
    return [t for lo, hi in runs for t in range(lo, hi + 1)]


class TestIntervalIndex:
    """The interval index a :class:`CalendarProbe` answers from outside
    a compiled set's safe range: the calendar's endpoint lanes, sorted
    by ``lo`` and merged."""

    CAL = Calendar.from_intervals([(1, 5), (8, 12), (20, 20)])

    def test_contains(self):
        probe = lanes_probe(self.CAL)
        assert probe.contains(1)
        assert probe.contains(5)
        assert probe.contains(10)
        assert probe.contains(20)
        assert not probe.contains(6)
        assert not probe.contains(0)
        assert not probe.contains(25)

    def test_merges_overlapping(self):
        probe = lanes_probe(Calendar.from_intervals([(1, 5), (4, 9)]))
        assert probe.runs(-50, 50) == [(1, 9)]
        assert probe.contains(7)

    def test_merges_unsorted_lanes(self):
        probe = lanes_probe(Calendar.from_intervals(
            [(20, 22), (8, 12), (1, 5), (4, 9)]))
        assert probe.runs(-50, 50) == [(1, 12), (20, 22)]
        assert [t for t in range(-2, 25) if probe.contains(t)] == \
            points([(1, 12), (20, 22)])

    def test_next_at_or_after(self):
        probe = lanes_probe(self.CAL)
        assert probe.runs(3, 100)[0][0] == 3
        assert probe.runs(6, 100)[0][0] == 8
        assert probe.runs(13, 100)[0][0] == 20
        assert probe.runs(21, 100) == []

    def test_next_skips_zero(self):
        probe = lanes_probe(Calendar.from_intervals([(-3, 3)]))
        assert probe.runs(0, 100)[0][0] == 1

    def test_iter_points(self):
        probe = lanes_probe(Calendar.from_intervals([(-2, 2)]))
        assert probe.runs(-10, 10) == [(-2, -1), (1, 2)]
        assert points(probe.runs(-10, 10)) == [-2, -1, 1, 2]

    def test_empty(self):
        probe = lanes_probe(Calendar())
        assert not probe.contains(1)
        assert probe.runs(-10, 10) == []


class _EvenTicks:
    """A stand-in compiled set: the even ticks."""

    @staticmethod
    def contains(t):
        return t % 2 == 0

    @staticmethod
    def runs_between(lo, hi):
        return [(t, t) for t in range(lo, hi + 1) if t % 2 == 0 and t]


class TestCalendarProbe:
    def test_compiled_set_answers_inside_its_safe_range(self):
        lanes = Calendar.from_intervals([(25, 27), (1, 3), (12, 12)])
        probe = CalendarProbe(lambda: lanes, lambda: (_EvenTicks, 10, 20))
        expected = [t for t in range(-5, 31)
                    if (10 <= t <= 20 and t % 2 == 0) or
                    (not 10 <= t <= 20 and lanes.contains_point(t))]
        assert [t for t in range(-5, 31) if probe.contains(t)] == expected
        assert points(probe.runs(-5, 30)) == expected
        assert probe.members(range(-5, 31)) == \
            [probe.contains(t) for t in range(-5, 31)]

    def test_compiles_and_resolves_on_first_need(self):
        calls = []
        probe = CalendarProbe(
            lambda: calls.append("resolve") or Calendar(),
            lambda: calls.append("compile") or (_EvenTicks, 10, 20))
        assert calls == []
        assert probe.contains(12) and calls == ["compile"]
        assert not probe.contains(30)
        assert probe.contains(14)
        assert calls == ["compile", "resolve"]

    @pytest.mark.parametrize("value", [True, False, None, "3", 2.0])
    def test_rejects_values_that_are_not_ticks(self, value):
        probe = lanes_probe(Calendar.from_intervals([(1, 5)]))
        with pytest.raises(ExecutionError, match="abstime tick"):
            probe.contains(value)
        with pytest.raises(ExecutionError, match="abstime tick"):
            probe.members([1, value])

    def test_members_does_not_take_a_bool_for_its_int(self):
        probe = lanes_probe(Calendar.from_intervals([(1, 5)]))
        with pytest.raises(ExecutionError):
            probe.members([1, True])


class TestProbeCache:
    """``Database.calendar_probe`` keeps the current catalog version's
    probes of the most recently used text references only."""

    @staticmethod
    def refs(n):
        # Probes compile and resolve on first need, so these cost
        # nothing until probed.
        return [f"{year}/YEARS" for year in range(1900, 1900 + n)]

    def test_distinct_refs_beyond_the_cap_stay_at_the_cap(self, db):
        cap = db.PROBE_CACHE_SIZE
        first, *rest = self.refs(2 * cap + 1)
        kept = db.calendar_probe(first)
        for ref in rest[:cap - 1]:
            db.calendar_probe(ref)
        assert db.calendar_probe(first) is kept  # used most recently now
        for ref in rest[cap - 1:]:
            db.calendar_probe(ref)
        assert len(db._probes) == cap
        assert db.calendar_probe(first) is not kept
        assert db.calendar_probe(rest[-1]) is db.calendar_probe(rest[-1])

    def test_define_drops_the_old_versions_entries(self, db):
        old = db.calendar_probe("MONDAYS")
        assert old.contains(db.system.day_of("Feb 1 1993"))
        for ref in self.refs(5):
            db.calendar_probe(ref)
        db.calendars.define("FEB_1", values=[(2223, 2223)],
                            granularity="DAYS")
        new = db.calendar_probe("MONDAYS")
        assert new is not old
        assert list(db._probes) == ["MONDAYS"]

    def test_threads_share_one_bounded_cache(self, db):
        refs = self.refs(3 * db.PROBE_CACHE_SIZE)
        errors = []

        def worker(offset):
            try:
                for i in range(600):
                    ref = refs[(offset * 37 + i) % len(refs)]
                    if db.calendar_probe(ref) is None:
                        errors.append(ref)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(db._probes) == db.PROBE_CACHE_SIZE
        probe = db.calendar_probe(refs[0])
        assert db.calendar_probe(refs[0]) is probe
