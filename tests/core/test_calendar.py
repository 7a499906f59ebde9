"""Unit tests for the Calendar type (order-n collections)."""

import pytest

from repro.core import Calendar, CalendarError, Granularity, Interval


def cal(*pairs):
    return Calendar.from_intervals(pairs)


class TestConstruction:
    def test_order1_from_pairs(self):
        c = cal((1, 5), (7, 9))
        assert c.order == 1
        assert c.to_pairs() == ((1, 5), (7, 9))

    def test_order1_from_intervals(self):
        c = Calendar.from_intervals([Interval(1, 2)])
        assert len(c) == 1

    def test_order2(self):
        c = Calendar.from_calendars([cal((1, 2)), cal((4, 5), (7, 8))])
        assert c.order == 2
        assert c.to_pairs() == (((1, 2),), ((4, 5), (7, 8)))

    def test_order3(self):
        inner = Calendar.from_calendars([cal((1, 2))])
        c = Calendar.from_calendars([inner])
        assert c.order == 3

    def test_mixed_orders_rejected(self):
        with pytest.raises(CalendarError):
            Calendar.from_calendars([cal((1, 2)),
                                     Calendar.from_calendars([cal((1, 2))])])

    def test_interval_in_order2_rejected(self):
        with pytest.raises(CalendarError):
            Calendar((Interval(1, 2),), order=2)

    def test_point_and_interval_constructors(self):
        assert Calendar.point(5).to_pairs() == ((5, 5),)
        assert Calendar.interval(2, 9).to_pairs() == ((2, 9),)

    def test_labels_must_parallel(self):
        with pytest.raises(CalendarError):
            Calendar.from_intervals([(1, 2)], labels=[1, 2])


class TestInspection:
    def test_bool_is_nonempty(self):
        assert not Calendar()
        assert cal((1, 1))

    def test_iteration_and_getitem(self):
        c = cal((1, 2), (4, 5))
        assert list(c) == [Interval(1, 2), Interval(4, 5)]
        assert c[1] == Interval(4, 5)

    def test_span(self):
        assert cal((3, 5), (9, 12)).span() == Interval(3, 12)
        assert Calendar().span() is None

    def test_contains_point(self):
        c = cal((1, 3), (7, 9))
        assert c.contains_point(2)
        assert not c.contains_point(5)

    def test_leaf_count_nested(self):
        c = Calendar.from_calendars([cal((1, 2)), cal((4, 5), (7, 8))])
        assert c.leaf_count() == 3

    def test_str_matches_paper_notation(self):
        assert str(cal((1, 31), (32, 59))) == "{(1,31),(32,59)}"
        nested = Calendar.from_calendars([cal((4, 10))])
        assert str(nested) == "{{(4,10)}}"


class TestLabels:
    def test_find_label(self):
        c = Calendar.from_intervals([(1, 365), (366, 731)],
                                    labels=[1987, 1988])
        assert c.find_label(1988) == 1
        assert c.find_label(1999) is None

    def test_label_of(self):
        c = Calendar.from_intervals([(1, 365)], labels=[1987])
        assert c.label_of(0) == 1987

    def test_unlabelled(self):
        assert cal((1, 2)).find_label(1987) is None


class TestFlatten:
    def test_flatten_order2(self):
        c = Calendar.from_calendars([cal((1, 2)), cal((4, 5))])
        assert c.flatten().to_pairs() == ((1, 2), (4, 5))

    def test_flatten_order3(self):
        inner = Calendar.from_calendars([cal((1, 2)), cal((4, 5), (7, 8))])
        c = Calendar.from_calendars([inner, Calendar.from_calendars(
            [cal((10, 12))])], Granularity.DAYS)
        flat = c.flatten()
        assert flat.order == 1 and flat.granularity == Granularity.DAYS
        assert flat.to_pairs() == ((1, 2), (4, 5), (7, 8), (10, 12))

    def test_flatten_order1_identity(self):
        c = cal((1, 2))
        assert c.flatten() is c

    def test_drop_empty(self):
        c = Calendar.from_calendars([cal((1, 2)), Calendar()])
        cleaned = c.drop_empty()
        assert len(cleaned) == 1


class TestSetOperations:
    def test_union_disjoint_keeps_elements(self):
        c = cal((1, 7)) + cal((8, 14))
        # Adjacent weeks are NOT merged: boundaries stay selectable.
        assert c.to_pairs() == ((1, 7), (8, 14))

    def test_union_merges_overlap(self):
        c = cal((1, 7)) + cal((5, 10))
        assert c.to_pairs() == ((1, 10),)

    def test_union_sorts(self):
        c = cal((8, 9)) + cal((1, 2))
        assert c.to_pairs() == ((1, 2), (8, 9))

    def test_difference_removes_whole(self):
        c = cal((31, 31), (59, 59)) - cal((31, 31))
        assert c.to_pairs() == ((59, 59),)

    def test_difference_splits(self):
        c = cal((1, 10)) - cal((4, 6))
        assert c.to_pairs() == ((1, 3), (7, 10))

    def test_difference_disjoint(self):
        c = cal((1, 3)) - cal((7, 9))
        assert c.to_pairs() == ((1, 3),)

    def test_intersection(self):
        c = cal((1, 10), (20, 30)) & cal((5, 25))
        assert c.to_pairs() == ((5, 10), (20, 25))

    def test_paper_emp_days_combination(self):
        # (LDOM - LDOM_HOL + LAST_BUS_DAY) from section 3.3.
        ldom = cal((31, 31), (59, 59), (90, 90))
        ldom_hol = cal((31, 31), (90, 90))
        last_bus = cal((30, 30), (88, 88))
        result = ldom - ldom_hol + last_bus
        assert result.to_pairs() == ((30, 30), (59, 59), (88, 88))

    def test_setops_require_order1(self):
        nested = Calendar.from_calendars([cal((1, 2))])
        with pytest.raises(CalendarError):
            nested + cal((1, 2))
        with pytest.raises(CalendarError):
            cal((1, 2)) - nested

    def test_granularity_preserved(self):
        a = Calendar.from_intervals([(1, 2)], Granularity.DAYS)
        assert (a + cal((4, 5))).granularity == Granularity.DAYS
