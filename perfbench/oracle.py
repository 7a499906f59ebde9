"""Oracles independent of the program: plain ``datetime`` arithmetic.

The checks compare the program's answers with these, never with another
path through the program.  Day ticks follow the paper's zero-skipping
axis with day 1 = Jan 1 1987 (the benchmark's epoch); every tick the
workloads generate is positive, so tick ``t`` is ``EPOCH + (t - 1)``
days.
"""

from __future__ import annotations

import calendar as pycal
import datetime

EPOCH = datetime.date(1987, 1, 1)
ONE_DAY = datetime.timedelta(days=1)


def tick_of(date: datetime.date) -> int:
    return (date - EPOCH).days + 1


def date_of(tick: int) -> datetime.date:
    if tick < 1:
        raise ValueError("the workloads only use ticks after the epoch")
    return EPOCH + datetime.timedelta(days=tick - 1)


def nth_weekday(year: int, month: int, isoweekday: int, n: int
                ) -> datetime.date:
    first = datetime.date(year, month, 1)
    offset = (isoweekday - first.isoweekday()) % 7
    return first + datetime.timedelta(days=offset + 7 * (n - 1))


def last_weekday(year: int, month: int, isoweekday: int) -> datetime.date:
    last = datetime.date(year, month, pycal.monthrange(year, month)[1])
    return last - datetime.timedelta(
        days=(last.isoweekday() - isoweekday) % 7)


def us_holidays(year: int) -> set[datetime.date]:
    """The ten US federal holidays as the markets observe them.

    Fixed-date holidays on a Saturday move to the Friday before and on a
    Sunday to the Monday after, except where that would leave the month
    (a Saturday New Year's Day is then not observed in that year).
    """
    days = {
        nth_weekday(year, 1, 1, 3),      # Martin Luther King Jr. Day
        nth_weekday(year, 2, 1, 3),      # Presidents' Day
        last_weekday(year, 5, 1),        # Memorial Day
        nth_weekday(year, 9, 1, 1),      # Labor Day
        nth_weekday(year, 10, 1, 2),     # Columbus Day
        nth_weekday(year, 11, 4, 4),     # Thanksgiving
    }
    for month, day in ((1, 1), (7, 4), (11, 11), (12, 25)):
        date = datetime.date(year, month, day)
        if date.isoweekday() == 6:
            if day > 1:
                days.add(date - ONE_DAY)
        elif date.isoweekday() == 7:
            if day < pycal.monthrange(year, month)[1]:
                days.add(date + ONE_DAY)
        else:
            days.add(date)
    return days


class HolidayOracle:
    """Memoised holiday membership over a year range."""

    def __init__(self, first_year: int, last_year: int) -> None:
        self.days = set()
        for year in range(first_year, last_year + 1):
            self.days |= us_holidays(year)

    def is_holiday(self, date: datetime.date) -> bool:
        return date in self.days

    def is_business_day(self, date: datetime.date) -> bool:
        return date.isoweekday() <= 5 and date not in self.days

    def roll_back_holiday(self, date: datetime.date) -> datetime.date:
        """``date``, or the last business day before it if it is a holiday
        (the E6/E7 ``[n]/AM_BUS_DAYS:<:`` step)."""
        if date not in self.days:
            return date
        date -= ONE_DAY
        while not self.is_business_day(date):
            date -= ONE_DAY
        return date

    def business_days(self, year: int, month: int) -> list[datetime.date]:
        last = pycal.monthrange(year, month)[1]
        return [datetime.date(year, month, day) for day in range(1, last + 1)
                if self.is_business_day(datetime.date(year, month, day))]


def week_within_month(date: datetime.date) -> bool:
    """Whether the Monday-Sunday week of ``date`` lies inside its month."""
    monday = date - datetime.timedelta(days=date.isoweekday() - 1)
    sunday = monday + datetime.timedelta(days=6)
    return (monday.year, monday.month) == (sunday.year, sunday.month) \
        == (date.year, date.month)


def week_within_year(date: datetime.date) -> bool:
    monday = date - datetime.timedelta(days=date.isoweekday() - 1)
    sunday = monday + datetime.timedelta(days=6)
    return monday.year == sunday.year == date.year


def is_last_of_month(date: datetime.date) -> bool:
    return date.day == pycal.monthrange(date.year, date.month)[1]
