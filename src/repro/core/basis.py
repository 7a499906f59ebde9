"""Basic calendars and the ``generate`` function of section 3.2.

The paper fixes the basic calendars ``SECONDS … CENTURY`` and materialises
them with ``generate(cal1, cal2, [Ts, Te])``: the intervals of ``cal1``
expressed in units of ``cal2`` over the window ``[Ts, Te]``, relative to a
*system start date* (Jan 1, 1987 in the paper's example, configurable
here via :class:`CalendarSystem`).

Two materialisation modes are provided:

* ``"clip"`` — the paper's ``generate``: the first/last intervals are
  truncated at the window boundary (the example's final ``(1827, 1829)``
  for Jan 1–3, 1992).
* ``"cover"`` — whole units overlapping the window are kept unclipped;
  this is what the algebra examples use (the WEEKS calendar of 1993 starts
  at ``(-4, 3)``, a whole week reaching back into 1992).

Generation builds endpoint lanes directly, with no per-unit objects or
per-day date conversion: unit boundaries come from civil arithmetic once
per unit (DAYS as one range per window with day-of-month labels counted
off month lengths, WEEKS at stride 7 from the first Monday), are
rescaled for sub-day units, and only the two boundary units are clipped.

Month- and year-granularity tick axes require the epoch to fall on the
first day of a month/year respectively; :class:`CalendarSystem` validates
this lazily when such an axis is first used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.calendar import Calendar
from repro.core.columnar import IntervalColumns
from repro.core.chrono import (
    CivilDate,
    Epoch,
    days_in_month,
    parse_date,
    rata_die,
)
from repro.core.errors import ChronologyError, GranularityError
from repro.core.granularity import Granularity, exact_ratio

__all__ = ["CalendarSystem", "BASIC_CALENDARS"]

BASIC_CALENDARS = tuple(g.name for g in Granularity)

_SUBDAY = (Granularity.SECONDS, Granularity.MINUTES, Granularity.HOURS)


def _scale_lo(t: int, k: int) -> int:
    """First fine tick of coarse tick ``t`` with ``k`` fine units per coarse."""
    return (t - 1) * k + 1 if t > 0 else t * k


def _scale_hi(t: int, k: int) -> int:
    """Last fine tick of coarse tick ``t``."""
    return t * k if t > 0 else (t + 1) * k - 1


def _unscale(tick: int, k: int) -> int:
    """Coarse tick containing fine tick ``tick``."""
    if tick > 0:
        return (tick - 1) // k + 1
    return -((-tick - 1) // k + 1)


def _axis_range(lo: int, hi: int) -> list[int]:
    """The axis ticks ``lo..hi`` inclusive (there is no tick 0)."""
    ticks = list(range(lo, min(hi, -1) + 1))
    ticks += range(max(lo, 1), hi + 1)
    return ticks


def _lin(day: int) -> int:
    """Axis day -> linear day (removes the zero skip)."""
    return day - 1 if day > 0 else day


def _axis(lin: int) -> int:
    """Linear day -> axis day."""
    return lin + 1 if lin >= 0 else lin


#: Years per unit of the calendars tiled by whole civil years.
_YEAR_STEPS = {Granularity.YEARS: 1, Granularity.DECADES: 10,
               Granularity.CENTURY: 100}


def _day_of_month_labels(epoch: Epoch, days: list) -> list:
    """Day-of-month labels of the consecutive civil days ``days``.

    One ``date_of`` for the first day; the rest is month lengths.
    """
    if not days:
        return []
    date = epoch.date_of(days[0])
    year, month, day = date.year, date.month, date.day
    count = len(days)
    labels: list[int] = []
    while len(labels) < count:
        labels += range(day, days_in_month(year, month) + 1)
        day = 1
        month += 1
        if month == 13:
            month, year = 1, year + 1
    del labels[count:]
    return labels


@dataclass
class CalendarSystem:
    """A time domain anchored at a system start date.

    All axis numbers produced by this object count units from the epoch
    (unit tick 1 begins at the epoch instant; there is no tick 0).
    """

    epoch: Epoch = field(
        default_factory=lambda: Epoch.of(CivilDate(1987, 1, 1)))

    @classmethod
    def starting(cls, date: "CivilDate | str") -> "CalendarSystem":
        return cls(Epoch.of(date))

    # -- window coercion ------------------------------------------------------

    def day_of(self, date: "CivilDate | str") -> int:
        """Axis day number of a civil date."""
        return self.epoch.day_number(date)

    def date_of(self, day: int) -> CivilDate:
        """Civil date of an axis day number."""
        return self.epoch.date_of(day)

    def day_window(self, start: "CivilDate | str | int",
                   end: "CivilDate | str | int") -> tuple[int, int]:
        """Coerce a ``[Ts, Te]`` pair to inclusive axis day numbers."""
        lo = start if isinstance(start, int) else self.day_of(start)
        hi = end if isinstance(end, int) else self.day_of(end)
        if lo > hi:
            raise ChronologyError(f"window start {lo} after end {hi}")
        return lo, hi

    # -- month / year tick axes ----------------------------------------------

    def _require_month_aligned(self) -> None:
        if self.epoch.date.day != 1:
            raise GranularityError(
                "month-granularity ticks require the system start date to be "
                f"the first of a month (epoch is {self.epoch.date})")

    def _require_year_aligned(self) -> None:
        if self.epoch.date.month != 1 or self.epoch.date.day != 1:
            raise GranularityError(
                "year-granularity ticks require the system start date to be "
                f"January 1 (epoch is {self.epoch.date})")

    def month_tick(self, year: int, month: int) -> int:
        """Month-axis tick of civil month ``year-month``."""
        self._require_month_aligned()
        e = self.epoch.date
        diff = (year - e.year) * 12 + (month - e.month)
        return diff + 1 if diff >= 0 else diff

    def month_of_tick(self, tick: int) -> tuple[int, int]:
        """(year, month) of a month-axis tick."""
        self._require_month_aligned()
        if tick == 0:
            raise ChronologyError("month tick 0 does not exist")
        e = self.epoch.date
        diff = tick - 1 if tick > 0 else tick
        total = (e.year * 12 + (e.month - 1)) + diff
        return total // 12, total % 12 + 1

    def year_tick(self, year: int) -> int:
        """Year-axis tick of a civil year."""
        self._require_year_aligned()
        diff = year - self.epoch.date.year
        return diff + 1 if diff >= 0 else diff

    def year_of_tick(self, tick: int) -> int:
        """Civil year of a year-axis tick."""
        self._require_year_aligned()
        if tick == 0:
            raise ChronologyError("year tick 0 does not exist")
        diff = tick - 1 if tick > 0 else tick
        return self.epoch.date.year + diff

    # -- day-level decomposition of coarse calendars ----------------------------

    def _unit_lanes(self, gran: Granularity, dlo: int, dhi: int
                    ) -> tuple[list, list, "list | None"]:
        """``(los, his, labels)`` lanes, in axis days, of the whole ``gran``
        units that overlap the day window ``[dlo, dhi]``, in axis order.

        Unit boundaries are computed in linear days (``rata_die`` minus
        the epoch serial, so there is no zero skip) and mapped back to
        axis days once per unit.  WEEKS units carry no labels (``None``).
        """
        epoch = self.epoch
        if dhi == 0:
            dhi = -1  # there is no day 0: the window ends the day before
        if gran == Granularity.DAYS:
            days = _axis_range(dlo, dhi)
            return days, list(days), _day_of_month_labels(epoch, days)
        last = _lin(dhi)
        if gran == Granularity.WEEKS:
            starts = range(_lin(dlo) - (epoch.weekday_of(dlo) - 1),
                           last + 1, 7)
            return ([_axis(s) for s in starts],
                    [_axis(s + 6) for s in starts], None)
        los: list[int] = []
        his: list[int] = []
        labels: list[object] = []
        date = epoch.date_of(dlo)
        if gran == Granularity.MONTHS:
            year, month = date.year, date.month
            first = _lin(dlo) - (date.day - 1)
            while first <= last:
                after = first + days_in_month(year, month)
                los.append(_axis(first))
                his.append(_axis(after - 1))
                labels.append(month)
                first = after
                month += 1
                if month == 13:
                    month, year = 1, year + 1
            return los, his, labels
        step = _YEAR_STEPS.get(gran)
        if step is None:
            raise GranularityError(
                f"{gran} has no day-level decomposition")
        serial = epoch.serial
        year = date.year // step * step
        first = rata_die(CivilDate(year, 1, 1)) - serial
        while first <= last:
            after = rata_die(CivilDate(year + step, 1, 1)) - serial
            los.append(_axis(first))
            his.append(_axis(after - 1))
            labels.append(year)
            first = after
            year += step
        return los, his, labels

    # -- generate ---------------------------------------------------------------

    @staticmethod
    def _tiling_calendar(los: list, his: list, cal_g: Granularity,
                         labels: "list | None" = None) -> Calendar:
        """Order-1 calendar over a generated tiling.

        Every generation path produces units in axis order without
        overlap, so the endpoint lanes go straight into column buffers
        with the sorted/disjoint flags pre-set (no ``Interval`` objects
        at all).
        """
        cols = IntervalColumns.from_lists(
            los, his, lo_sorted=True, hi_sorted=True, disjoint=True)
        return Calendar._from_columns(
            cols, cal_g, tuple(labels) if labels is not None else None)

    def generate(self, cal: "str | Granularity", unit: "str | Granularity",
                 window: tuple, mode: str = "clip") -> Calendar:
        """The paper's ``generate(cal1, cal2, [Ts, Te])``.

        ``cal`` is the calendar to materialise and ``unit`` the granularity
        its interval endpoints are expressed in; ``unit`` must not be coarser
        than ``cal``.  ``window`` is a ``(start, end)`` pair of civil dates,
        date strings, or axis ticks *of the unit granularity*.

        ``mode="clip"`` truncates boundary units (the paper's generate);
        ``mode="cover"`` keeps whole overlapping units.
        """
        cal_g = Granularity.parse(cal)
        unit_g = Granularity.parse(unit)
        if unit_g > cal_g:
            raise GranularityError(
                f"cannot express {cal_g} in coarser unit {unit_g}")
        if mode not in ("clip", "cover"):
            raise GranularityError(f"unknown generate mode {mode!r}")
        start, end = window
        if unit_g in _SUBDAY or unit_g == Granularity.DAYS:
            return self._generate_day_based(cal_g, unit_g, start, end, mode)
        if unit_g == Granularity.WEEKS:
            if cal_g != Granularity.WEEKS:
                raise GranularityError(
                    "weeks do not evenly tile coarser calendars; "
                    "express the calendar in DAYS instead")
            return self._generate_day_based(cal_g, unit_g, start, end, mode)
        return self._generate_month_year_based(cal_g, unit_g, start, end, mode)

    # The day-based path covers unit granularities SECONDS..DAYS (and the
    # WEEKS-in-WEEKS identity): tile the day window with whole units as
    # endpoint lanes, rescale day numbers to the requested unit, then
    # apply the mode to the two boundary units.
    def _generate_day_based(self, cal_g: Granularity, unit_g: Granularity,
                            start, end, mode: str) -> Calendar:
        if cal_g in _SUBDAY:
            return self._generate_subday_calendar(cal_g, unit_g, start, end,
                                                  mode)
        if unit_g == Granularity.WEEKS:
            # identity materialisation of WEEKS in week ticks
            if isinstance(start, int) and isinstance(end, int):
                ws, we = start, end
            else:
                dlo, dhi = self.day_window(start, end)
                ws, we = _unscale(dlo, 7), _unscale(dhi, 7)
            ticks = _axis_range(ws, we)
            return self._tiling_calendar(ticks, ticks, cal_g)
        k = exact_ratio(unit_g, Granularity.DAYS)
        if isinstance(start, int) and isinstance(end, int):
            ws, we = start, end
            dlo, dhi = _unscale(ws, k), _unscale(we, k)
        else:
            dlo, dhi = self.day_window(start, end)
            ws, we = _scale_lo(dlo, k), _scale_hi(dhi, k)
        los, his, labels = self._unit_lanes(cal_g, dlo, dhi)
        if k != 1:
            los = [_scale_lo(t, k) for t in los]
            his = [_scale_hi(t, k) for t in his]
        if mode == "clip" and los:
            # Every unit overlaps the window, so only the boundary units
            # can reach outside it.  An inverted window admits at most
            # the unit holding its start, which clipping empties.
            if los[0] < ws:
                los[0] = ws
            if his[-1] > we:
                his[-1] = we
            if los[-1] > his[-1]:
                del los[-1], his[-1]
                if labels is not None:
                    del labels[-1]
        return self._tiling_calendar(los, his, cal_g, labels)

    def _generate_subday_calendar(self, cal_g: Granularity,
                                  unit_g: Granularity, start, end,
                                  mode: str) -> Calendar:
        """A sub-day calendar (SECONDS/MINUTES/HOURS) in a sub-day unit.

        Both axes are regular, so this is pure tick arithmetic: one cal
        unit spans ``r`` unit ticks (``r`` = exact units per cal unit).
        """
        r = exact_ratio(unit_g, cal_g)
        if isinstance(start, int) and isinstance(end, int):
            ws, we = start, end
        else:
            k = exact_ratio(unit_g, Granularity.DAYS)
            dlo, dhi = self.day_window(start, end)
            ws, we = _scale_lo(dlo, k), _scale_hi(dhi, k)
        c_lo, c_hi = _unscale(ws, r), _unscale(we, r)
        los: list[int] = []
        his: list[int] = []
        for c in range(c_lo, c_hi + 1):
            if c == 0:
                continue
            lo = _scale_lo(c, r)
            hi = _scale_hi(c, r)
            if mode == "clip":
                if lo < ws:
                    lo = ws
                if hi > we:
                    hi = we
                if lo > hi:
                    continue
            elif lo > we or hi < ws:
                continue
            los.append(lo)
            his.append(hi)
        return self._tiling_calendar(los, his, cal_g)

    # The month/year-based path covers unit granularities MONTHS..CENTURY.
    def _generate_month_year_based(self, cal_g: Granularity,
                                   unit_g: Granularity,
                                   start, end, mode: str) -> Calendar:
        if unit_g == Granularity.MONTHS:
            self._require_month_aligned()
            to_tick = lambda y, m: self.month_tick(y, m)  # noqa: E731
            if isinstance(start, int) and isinstance(end, int):
                ws, we = start, end
                sy, sm = self.month_of_tick(ws)
                ey, em = self.month_of_tick(we)
            else:
                sd = start if isinstance(start, CivilDate) else parse_date(start)
                ed = end if isinstance(end, CivilDate) else parse_date(end)
                sy, sm, ey, em = sd.year, sd.month, ed.year, ed.month
                ws, we = to_tick(sy, sm), to_tick(ey, em)
        else:
            self._require_year_aligned()
            if isinstance(start, int) and isinstance(end, int):
                ws, we = start, end
                sy = self.year_of_tick(ws)
                ey = self.year_of_tick(we)
            else:
                sd = start if isinstance(start, CivilDate) else parse_date(start)
                ed = end if isinstance(end, CivilDate) else parse_date(end)
                sy, ey = sd.year, ed.year
                if unit_g == Granularity.YEARS:
                    ws, we = self.year_tick(sy), self.year_tick(ey)
                elif unit_g == Granularity.DECADES:
                    ws, we = (self._decade_tick(sy), self._decade_tick(ey))
                else:
                    raise GranularityError(
                        f"unsupported unit granularity {unit_g}")
        los: list[int] = []
        his: list[int] = []
        labels: list[object] = []
        if unit_g == Granularity.MONTHS:
            units = self._iter_units_months(cal_g, sy, sm, ey, em)
        else:
            units = self._iter_units_years(cal_g, unit_g, sy, ey)
        for lo, hi, label in units:
            if mode == "clip":
                if lo < ws:
                    lo = ws
                if hi > we:
                    hi = we
                if lo > hi:
                    continue
            elif lo > we or hi < ws:
                continue
            los.append(lo)
            his.append(hi)
            labels.append(label)
        return self._tiling_calendar(los, his, cal_g, labels)

    def _decade_tick(self, year: int) -> int:
        self._require_year_aligned()
        diff = (year - self.epoch.date.year) // 10
        return diff + 1 if diff >= 0 else diff

    def _iter_units_months(self, cal_g: Granularity, sy: int, sm: int,
                           ey: int, em: int):
        if cal_g == Granularity.MONTHS:
            y, m = sy, sm
            while (y, m) <= (ey, em):
                t = self.month_tick(y, m)
                yield t, t, m
                m += 1
                if m == 13:
                    m, y = 1, y + 1
        elif cal_g == Granularity.YEARS:
            for year in range(sy, ey + 1):
                yield (self.month_tick(year, 1),
                       self.month_tick(year, 12), year)
        elif cal_g == Granularity.DECADES:
            for year in range(sy // 10 * 10, ey + 1, 10):
                yield (self.month_tick(year, 1),
                       self.month_tick(year + 9, 12), year)
        elif cal_g == Granularity.CENTURY:
            for year in range(sy // 100 * 100, ey + 1, 100):
                yield (self.month_tick(year, 1),
                       self.month_tick(year + 99, 12), year)
        else:
            raise GranularityError(
                f"{cal_g} cannot be expressed in months")

    def _iter_units_years(self, cal_g: Granularity, unit_g: Granularity,
                          sy: int, ey: int):
        if unit_g == Granularity.YEARS:
            tick = self.year_tick
        elif unit_g == Granularity.DECADES:
            tick = self._decade_tick
        else:
            raise GranularityError(f"unsupported unit granularity {unit_g}")
        if cal_g == Granularity.YEARS:
            for year in range(sy, ey + 1):
                yield tick(year), tick(year), year
        elif cal_g == Granularity.DECADES:
            step_lo = 0 if unit_g == Granularity.DECADES else 9
            for year in range(sy // 10 * 10, ey + 1, 10):
                yield tick(year), tick(year + step_lo), year
        elif cal_g == Granularity.CENTURY:
            last_offset = 90 if unit_g == Granularity.DECADES else 99
            for year in range(sy // 100 * 100, ey + 1, 100):
                yield tick(year), tick(year + last_offset), year
        else:
            raise GranularityError(
                f"{cal_g} cannot be expressed in {unit_g}")

    # -- convenience day-level materialisation ----------------------------------

    def days(self, start, end, mode: str = "clip") -> Calendar:
        """The DAYS calendar over a window (day ticks)."""
        return self.generate(Granularity.DAYS, Granularity.DAYS,
                             (start, end), mode)

    def weeks(self, start, end, mode: str = "cover") -> Calendar:
        """The WEEKS calendar over a window (whole weeks by default)."""
        return self.generate(Granularity.WEEKS, Granularity.DAYS,
                             (start, end), mode)

    def months(self, start, end, mode: str = "clip") -> Calendar:
        """The MONTHS calendar over a window, in day ticks."""
        return self.generate(Granularity.MONTHS, Granularity.DAYS,
                             (start, end), mode)

    def years(self, start, end, mode: str = "clip") -> Calendar:
        """The YEARS calendar over a window, in day ticks."""
        return self.generate(Granularity.YEARS, Granularity.DAYS,
                             (start, end), mode)

    def year_days(self, year: int, mode: str = "clip") -> Calendar:
        """All days of ``year`` as an order-1 DAYS calendar."""
        lo, hi = self.epoch.days_of_year(year)
        return self.days(lo, hi, mode)
