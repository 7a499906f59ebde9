"""Unit tests for ordered and interval indexes."""

from repro.core import Calendar
from repro.db import IntervalIndex, OrderedIndex


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


class TestIntervalIndex:
    CAL = Calendar.from_intervals([(1, 5), (8, 12), (20, 20)])

    def test_contains(self):
        index = IntervalIndex(self.CAL)
        assert index.contains(1)
        assert index.contains(5)
        assert index.contains(10)
        assert index.contains(20)
        assert not index.contains(6)
        assert not index.contains(0)
        assert not index.contains(25)

    def test_merges_overlapping(self):
        index = IntervalIndex(Calendar.from_intervals([(1, 5), (4, 9)]))
        assert len(index) == 1
        assert index.contains(7)

    def test_merges_unsorted_lanes(self):
        index = IntervalIndex(Calendar.from_intervals(
            [(20, 22), (8, 12), (1, 5), (4, 9)]))
        assert index.lanes() == ([1, 20], [12, 22])

    def test_next_at_or_after(self):
        index = IntervalIndex(self.CAL)
        assert index.next_at_or_after(3) == 3
        assert index.next_at_or_after(6) == 8
        assert index.next_at_or_after(13) == 20
        assert index.next_at_or_after(21) is None

    def test_next_skips_zero(self):
        index = IntervalIndex(Calendar.from_intervals([(-3, 3)]))
        assert index.next_at_or_after(0) == 1

    def test_iter_points(self):
        index = IntervalIndex(Calendar.from_intervals([(-2, 2)]))
        assert list(index.iter_points()) == [-2, -1, 1, 2]

    def test_empty(self):
        index = IntervalIndex(Calendar())
        assert not index.contains(1)
        assert index.next_at_or_after(1) is None
