"""Unit tests for CalendarSystem.generate and basic calendars."""

import pytest

from repro.core import (
    CalendarSystem,
    ChronologyError,
    Granularity,
    GranularityError,
)
from repro.core import basis
from repro.errors import ReproError


@pytest.fixture(scope="module")
def sys87():
    return CalendarSystem.starting("Jan 1 1987")


@pytest.fixture(scope="module")
def sys93():
    return CalendarSystem.starting("Jan 1 1993")


class TestGenerateYearsInDays:
    def test_paper_example_exact(self, sys87):
        """The section 3.2 worked example, verbatim."""
        years = sys87.generate("YEARS", "DAYS",
                               ("Jan 1 1987", "Jan 3 1992"))
        assert years.to_pairs() == (
            (1, 365), (366, 731), (732, 1096),
            (1097, 1461), (1462, 1826), (1827, 1829))

    def test_labels_are_year_numbers(self, sys87):
        years = sys87.generate("YEARS", "DAYS",
                               ("Jan 1 1987", "Jan 3 1992"))
        assert years.labels == (1987, 1988, 1989, 1990, 1991, 1992)

    def test_cover_mode_keeps_whole_years(self, sys87):
        years = sys87.generate("YEARS", "DAYS",
                               ("Jan 1 1987", "Jan 3 1992"), mode="cover")
        assert years.to_pairs()[-1] == (1827, 2192)  # all of leap 1992

    def test_window_before_epoch(self, sys87):
        years = sys87.generate("YEARS", "DAYS",
                               ("Jan 1 1986", "Dec 31 1986"))
        assert years.to_pairs() == ((-365, -1),)

    def test_granularity_attribute(self, sys87):
        years = sys87.generate("YEARS", "DAYS", ("Jan 1 1987",
                                                 "Dec 31 1987"))
        assert years.granularity == Granularity.YEARS


class TestGenerateWeeks:
    def test_weeks_1993_match_paper(self, sys93):
        weeks = sys93.weeks("Jan 1 1993", "Dec 31 1993")
        assert weeks.to_pairs()[:7] == (
            (-4, 3), (4, 10), (11, 17), (18, 24), (25, 31),
            (32, 38), (39, 45))

    def test_weeks_are_monday_aligned(self, sys93):
        weeks = sys93.weeks("Jan 1 1993", "Dec 31 1993")
        for iv in weeks.elements:
            assert sys93.epoch.weekday_of(iv.lo) == 1
            assert sys93.epoch.weekday_of(iv.hi) == 7

    def test_weeks_clip_mode(self, sys93):
        weeks = sys93.generate("WEEKS", "DAYS",
                               ("Jan 1 1993", "Jan 31 1993"), mode="clip")
        assert weeks.to_pairs()[0] == (1, 3)


class TestGenerateMonths:
    def test_months_1993(self, sys93):
        months = sys93.months("Jan 1 1993", "Dec 31 1993")
        assert months.to_pairs()[:4] == (
            (1, 31), (32, 59), (60, 90), (91, 120))
        assert len(months) == 12

    def test_month_labels(self, sys93):
        months = sys93.months("Jan 1 1993", "Mar 31 1993")
        assert months.labels == (1, 2, 3)

    def test_leap_february(self, sys87):
        months = sys87.months("Jan 1 1988", "Dec 31 1988")
        feb = months.elements[1]
        assert len(feb) == 29


class TestGenerateDays:
    def test_days_labelled_with_day_of_month(self, sys93):
        days = sys93.days("Jan 30 1993", "Feb 2 1993")
        assert days.labels == (30, 31, 1, 2)

    def test_day_window_skips_zero(self, sys93):
        days = sys93.days(-2, 2)
        assert days.to_pairs() == ((-2, -2), (-1, -1), (1, 1), (2, 2))


class TestGenerateSubDay:
    def test_hours_of_one_day(self, sys87):
        hours = sys87.generate("HOURS", "HOURS",
                               ("Jan 1 1987", "Jan 1 1987"))
        assert hours.to_pairs() == tuple((h, h) for h in range(1, 25))

    def test_days_in_hours(self, sys87):
        days = sys87.generate("DAYS", "HOURS",
                              ("Jan 1 1987", "Jan 2 1987"))
        assert days.to_pairs() == ((1, 24), (25, 48))

    def test_days_in_minutes(self, sys87):
        days = sys87.generate("DAYS", "MINUTES",
                              ("Jan 1 1987", "Jan 1 1987"))
        assert days.to_pairs() == ((1, 1440),)

    def test_weeks_in_days_only(self, sys87):
        with pytest.raises(GranularityError):
            sys87.generate("MONTHS", "WEEKS",
                           ("Jan 1 1987", "Dec 31 1987"))


class TestGenerateMonthYearUnits:
    def test_years_in_months(self, sys87):
        years = sys87.generate("YEARS", "MONTHS",
                               ("Jan 1 1987", "Dec 31 1988"))
        assert years.to_pairs() == ((1, 12), (13, 24))

    def test_months_in_months(self, sys87):
        months = sys87.generate("MONTHS", "MONTHS",
                                ("Jan 1 1987", "Mar 31 1987"))
        assert months.to_pairs() == ((1, 1), (2, 2), (3, 3))

    def test_decades_in_years(self, sys87):
        decades = sys87.generate("DECADES", "YEARS",
                                 ("Jan 1 1987", "Dec 31 1999"))
        # Clip mode truncates the 1980s decade at the window start.
        assert decades.to_pairs() == ((1, 3), (4, 13))
        cover = sys87.generate("DECADES", "YEARS",
                               ("Jan 1 1987", "Dec 31 1999"), mode="cover")
        # Cover mode keeps the whole 1980s: year ticks -7 (1980) .. 3 (1989).
        assert cover.to_pairs() == ((-7, 3), (4, 13))

    def test_requires_aligned_epoch(self):
        misaligned = CalendarSystem.starting("Jan 15 1987")
        with pytest.raises(GranularityError):
            misaligned.generate("YEARS", "MONTHS",
                                ("Jan 1 1987", "Dec 31 1987"))

    def test_century_in_years(self, sys87):
        century = sys87.generate("CENTURY", "YEARS",
                                 ("Jan 1 1987", "Dec 31 1987"),
                                 mode="cover")
        # The 1900s century: 1900..1999 -> year ticks -87..13.
        assert century.to_pairs() == ((-87, 13),)


class TestGenerateValidation:
    def test_coarser_unit_rejected(self, sys87):
        with pytest.raises(GranularityError):
            sys87.generate("DAYS", "MONTHS", ("Jan 1 1987", "Dec 31 1987"))

    def test_unknown_mode_rejected(self, sys87):
        with pytest.raises(GranularityError):
            sys87.generate("DAYS", "DAYS", (1, 5), mode="middle")

    def test_inverted_window_rejected(self, sys87):
        with pytest.raises(ChronologyError):
            sys87.days("Feb 1 1987", "Jan 1 1987")

    def test_unknown_calendar_name(self, sys87):
        with pytest.raises(GranularityError):
            sys87.generate("FORTNIGHTS", "DAYS", (1, 20))


class TestTickAxes:
    def test_month_ticks(self, sys87):
        assert sys87.month_tick(1987, 1) == 1
        assert sys87.month_tick(1987, 12) == 12
        assert sys87.month_tick(1988, 1) == 13
        assert sys87.month_tick(1986, 12) == -1

    def test_month_of_tick_roundtrip(self, sys87):
        for tick in (-13, -1, 1, 7, 25):
            year, month = sys87.month_of_tick(tick)
            assert sys87.month_tick(year, month) == tick

    def test_year_ticks(self, sys87):
        assert sys87.year_tick(1987) == 1
        assert sys87.year_tick(1986) == -1
        assert sys87.year_of_tick(-1) == 1986

    def test_no_tick_zero(self, sys87):
        with pytest.raises(ChronologyError):
            sys87.month_of_tick(0)
        with pytest.raises(ChronologyError):
            sys87.year_of_tick(0)


class TestDateStringMemo:
    """``day_of`` parses each date string once per system."""

    def test_memoised_day_equals_the_parsed_day(self):
        system = CalendarSystem.starting("Jan 1 1987")
        first = system.day_of("Nov 30 1993")
        assert first == system.epoch.day_number("Nov 30 1993")
        assert system.day_of("Nov 30 1993") == first
        assert system._date_days == {"Nov 30 1993": first}
        assert CalendarSystem.starting("Jan 1 1993").day_of(
            "Nov 30 1993") != first

    def test_memo_is_bounded(self):
        system = CalendarSystem.starting("Jan 1 1987")
        limit = basis._DATE_MEMO_SIZE
        for day in range(limit + 10):
            system.day_of(str(system.date_of(day + 1)))
        assert len(system._date_days) <= limit
        assert system.day_of("Jan 1 1987") == 1

    def test_bad_date_raises_alike_every_time(self):
        system = CalendarSystem.starting("Jan 1 1987")
        errors = []
        for _ in range(2):
            with pytest.raises(ReproError) as caught:
                system.day_of("Feb 30 1993")
            errors.append(caught.value)
        assert type(errors[0]) is type(errors[1])
        assert str(errors[0]) == str(errors[1])
        assert system._date_days == {}
