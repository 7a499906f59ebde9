"""Representation-level columnar tests: int64 bounds, empty lanes,
zero-copy cache serves, and the materialisation counter surfaces.

The parity properties live in ``tests/property/test_columnar_props.py``;
this file pins the representation mechanics the properties cannot see —
that every order-1 calendar carries columns, when the element tuple is
(not) built, and how values outside the int64 lanes are refused.
"""

import gc
import tracemalloc

import pytest

from repro.core import (
    Calendar,
    CalendarSystem,
    Interval,
    IntervalColumns,
    LAST,
    SelectionPredicate,
    foreach,
    select,
)
from repro.core import columnar
from repro.core.columnar import Q_MAX, Q_MIN
from repro.core.errors import InvalidIntervalError
from repro.core.interval import axis_add
from repro.core.matcache import MaterialisationCache
from repro.errors import ReproError


class TestInt64OverflowFallback:
    """An endpoint outside the int64 lanes raises a typed error at the
    boundary.  Python integers themselves never overflow, so only the
    lanes (not the axis arithmetic) have a range limit."""

    def test_from_intervals_beyond_int64_raises(self):
        big = Q_MAX + 10
        with pytest.raises(InvalidIntervalError):
            Calendar.from_intervals([(1, 1), (big, big + 1)])

    def test_below_int64_min_raises(self):
        small = Q_MIN - 10
        with pytest.raises(InvalidIntervalError):
            Calendar.from_intervals([(small, small), (1, 2)])

    def test_raw_constructor_beyond_int64_raises(self):
        big = Q_MAX + 10
        with pytest.raises(InvalidIntervalError):
            Calendar((Interval(1, 5), Interval(big, big)))

    def test_shifted_overflow_raises(self):
        cal = Calendar.from_intervals([(Q_MAX - 1, Q_MAX - 1)])
        assert cal.columns is not None
        with pytest.raises(InvalidIntervalError):
            cal.shifted(10)

    def test_error_is_a_repro_error_not_overflow(self):
        with pytest.raises(ReproError) as caught:
            Calendar.from_intervals([(Q_MIN, Q_MAX + 1)])
        assert not isinstance(caught.value, OverflowError)

    def test_int64_extremes_are_accepted(self):
        cal = Calendar.from_intervals([(Q_MIN, -1), (1, Q_MAX)])
        assert cal.to_pairs() == ((Q_MIN, -1), (1, Q_MAX))

    def test_axis_add_beyond_lanes_still_zero_skips(self):
        # axis_add works on arbitrary Python ints; crossing zero from a
        # point beyond the lane range must still skip tick 0.
        assert axis_add(-(Q_MAX + 5), 2 * (Q_MAX + 5)) == Q_MAX + 6


class TestRawConstructor:
    def test_raw_order1_build_carries_columns_without_materialising(self):
        before = columnar.MATERIALISATIONS.value
        cal = Calendar((Interval(1, 2), Interval(4, 5)))
        assert cal.columns is not None
        assert cal.to_pairs() == ((1, 2), (4, 5))
        assert cal == Calendar.from_intervals([(1, 2), (4, 5)])
        assert len(cal.elements) == 2
        assert columnar.MATERIALISATIONS.value == before

    def test_100k_intervals_retain_two_int64_lanes(self):
        """16 bytes per interval; ~56 would mean Interval objects."""
        pairs = [(d, d) for d in range(1, 100_001)]
        gc.collect()
        tracemalloc.start()
        try:
            cal = Calendar.from_intervals(pairs)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cal) == 100_000
        assert retained <= 20 * 100_000


class TestEmptyCalendars:
    def test_empty_lanes_round_trip_without_materialising(self):
        empty = Calendar.from_intervals([])
        days = Calendar.from_intervals([(1, 2), (4, 5)])
        before = columnar.MATERIALISATIONS.value
        assert (empty & days).to_pairs() == ()
        assert (empty - days).to_pairs() == ()
        assert (days - empty).to_pairs() == ((1, 2), (4, 5))
        assert (empty + days).to_pairs() == ((1, 2), (4, 5))
        assert foreach("during", empty, Interval(1, 9)).to_pairs() == ()
        assert foreach("during", days, empty).to_pairs() == ()
        assert columnar.MATERIALISATIONS.value == before

    def test_empty_columns_flags(self):
        cols = IntervalColumns.empty()
        assert len(cols.los) == 0
        assert cols.lo_sorted and cols.hi_sorted and cols.disjoint


class TestLazyMaterialisation:
    def test_iteration_and_indexing_stay_lazy(self):
        cal = Calendar.from_intervals([(1, 2), (4, 5), (7, 9)])
        before = columnar.MATERIALISATIONS.value
        assert [iv.lo for iv in cal] == [1, 4, 7]
        assert cal[1] == Interval(4, 5)
        assert len(cal) == 3 and bool(cal)
        assert cal.span() == Interval(1, 9)
        assert columnar.MATERIALISATIONS.value == before

    def test_elements_access_bumps_counter_once(self):
        cal = Calendar.from_intervals([(1, 2), (4, 5)])
        before = columnar.MATERIALISATIONS.value
        assert len(cal.elements) == 2
        assert len(cal.elements) == 2  # memoised; no second bump
        assert columnar.MATERIALISATIONS.value == before + 1


class TestMatcacheZeroCopy:
    def test_cache_serve_stays_columnar(self):
        system = CalendarSystem.starting("Jan 1 1987")
        cache = MaterialisationCache()
        cache.generate(system, "WEEKS", "DAYS", (1, 1461), "cover")
        before = columnar.MATERIALISATIONS.value
        served = cache.generate(system, "WEEKS", "DAYS", (100, 400),
                                "clip")
        assert served.columns is not None
        assert columnar.MATERIALISATIONS.value == before
        want = system.generate("WEEKS", "DAYS", (100, 400), mode="clip")
        assert served.to_pairs() == want.to_pairs()


class TestCounterSurfaces:
    def test_session_metrics_exposes_counter(self):
        from repro import Session
        session = Session("Jan 1 1987", holiday_years=(1987, 1988))
        metrics = session.metrics()
        assert metrics["columnar.materialisations"] \
            == columnar.MATERIALISATIONS.value

    def test_cli_cache_line_includes_counter(self):
        from repro.cli import Session as Shell
        shell = Shell(epoch="Jan 1 1987", holiday_years=(1987, 1988))
        out = shell.run_line("\\cache")
        assert "columnar materialisations" in out


class TestGroupedCalendarsStayLanes:
    def test_selection_over_400_years_builds_no_group_objects(self):
        # 20 871 week groups: the grouped foreach and the multi-position
        # selection are lanes plus offsets, never one object per group.
        system = CalendarSystem.starting("Jan 1 1987")
        days = system.generate("DAYS", "DAYS", (1, 146097), mode="cover")
        weeks = system.generate("WEEKS", "DAYS", (1, 146097), mode="cover")
        before = columnar.MATERIALISATIONS.value
        grouped = foreach("during", days, weeks)
        picked = select(grouped, SelectionPredicate.of((1, 5)))
        assert len(grouped) == len(weeks)
        assert picked.order == 2 and len(picked) == len(weeks)
        assert picked.leaf_count() == 104_357
        for cal in (grouped, picked):
            assert cal.group_lanes is not None
            assert cal._mat is None
        members = picked.group_lanes[0]
        flat = picked.flatten()
        assert flat.columns is members
        assert flat.columns.los is members.los
        # The tiling's groups abut: the foreach members are a zero-copy
        # view of the DAYS lanes.
        lane = grouped.group_lanes[0].los
        owner = lane.obj if isinstance(lane, memoryview) else lane
        assert owner is days.columns.los
        assert columnar.MATERIALISATIONS.value == before


    def test_overlapping_groups_share_the_member_lanes(self):
        # "<" groups are prefixes of the DAYS lane: 1 565 groups holding
        # ~8.6M members in all are two integers each, not a copy.
        system = CalendarSystem.starting("Jan 1 1987")
        days = system.generate("DAYS", "DAYS", (1, 10958), mode="cover")
        weeks = system.generate("WEEKS", "DAYS", (1, 10958), mode="cover")
        grouped = foreach("<", days, weeks)
        members, starts, ends = grouped.group_lanes
        assert members is days.columns
        assert set(starts) == {0} and len(grouped) == len(weeks) - 1
        assert grouped.leaf_count() == sum(ends)
        # A day is "<" a week when it ends by the week's first day.
        last = select(grouped, SelectionPredicate.of(LAST))
        assert last.to_pairs() == tuple(
            (lo, lo) for lo, _ in weeks.to_pairs()[1:])


class TestFusedPipelineStaysColumnar:
    def test_fused_selection_pipeline_materialises_nothing(self):
        from repro import Session
        session = Session("Jan 1 1987", holiday_years=(1987, 1988))
        # The periodic backend would otherwise answer this
        # day-granularity expression without touching the plan VM.
        session.registry.periodic = False
        before = columnar.MATERIALISATIONS.value
        cal = session.eval("[2]/DAYS:during:WEEKS",
                           window=("Jan 1 1993", "Dec 31 1993"))
        assert len(cal) == 52 or len(cal) == 53
        assert cal.columns is not None
        assert columnar.MATERIALISATIONS.value == before
