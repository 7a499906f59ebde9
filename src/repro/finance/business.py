"""Business-day logic over catalog calendars.

A :class:`BusinessCalendar` wraps a registry's business-day calendar
(by default ``AM_BUS_DAYS``, weekdays minus holidays, installed by
:func:`repro.catalog.builtins.install_us_holidays`) and provides the roll
conventions and business-day arithmetic that financial applications need.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.registry import CalendarRegistry
from repro.core.arithmetic import (
    count_points_between,
    next_point,
    prev_point,
    shift_point,
)
from repro.core.calendar import Calendar
from repro.core.errors import CalendarError

__all__ = ["BusinessCalendar"]


@dataclass
class BusinessCalendar:
    """Business-day queries against a named calendar."""

    registry: CalendarRegistry
    calendar_name: str = "AM_BUS_DAYS"
    #: Evaluation window (day ticks); defaults to the registry default.
    window: tuple[int, int] | None = None

    def _calendar(self) -> Calendar:
        """The business-day calendar, flattened.  The registry's result
        memo serves it until a define/drop bumps the registry version."""
        value = self.registry.evaluate(self.calendar_name,
                                       window=self.window)
        if not isinstance(value, Calendar):
            raise CalendarError(
                f"{self.calendar_name!r} did not evaluate to a calendar")
        return value.flatten()

    def invalidate(self) -> None:
        """Force a refresh after an out-of-band catalog change.

        Redefinitions through :meth:`CalendarRegistry.define` /
        :meth:`~CalendarRegistry.drop` bump the registry version and are
        picked up automatically; a change made without them (assigning
        a record's ``values``, say) is not seen until this bumps the
        version too, which retires every memoised result and plan of
        the registry.
        """
        self.registry.version += 1

    # -- queries --------------------------------------------------------------

    def is_business_day(self, t: int) -> bool:
        """True when axis day ``t`` is a business day."""
        return self._calendar().contains_point(t)

    def next_business_day(self, t: int, inclusive: bool = False) -> int:
        """First business day after (or at, if inclusive) ``t``."""
        value = next_point(self._calendar(), t, inclusive=inclusive)
        if value is None:
            raise CalendarError("no business day within the window after "
                                f"tick {t}")
        return value

    def previous_business_day(self, t: int,
                              inclusive: bool = False) -> int:
        """Last business day before (or at, if inclusive) ``t``."""
        value = prev_point(self._calendar(), t, inclusive=inclusive)
        if value is None:
            raise CalendarError("no business day within the window before "
                                f"tick {t}")
        return value

    def add_business_days(self, t: int, n: int) -> int:
        """Move ``n`` business days from ``t`` (negative moves back)."""
        value = shift_point(self._calendar(), t, n)
        if value is None:
            raise CalendarError(
                f"cannot move {n} business days from tick {t} inside the "
                "window")
        return value

    def business_days_between(self, a: int, b: int) -> int:
        """Business days in the inclusive span ``[a, b]``."""
        return count_points_between(self._calendar(), a, b)

    # -- roll conventions ----------------------------------------------------------

    def adjust(self, t: int, convention: str = "following") -> int:
        """Roll a date onto a business day.

        ``following`` / ``preceding`` / ``modified_following`` (roll
        forward unless that crosses a month boundary, then roll back).
        """
        if self.is_business_day(t):
            return t
        if convention == "following":
            return self.next_business_day(t)
        if convention == "preceding":
            return self.previous_business_day(t)
        if convention == "modified_following":
            candidate = self.next_business_day(t)
            if self.registry.system.date_of(candidate).month != \
                    self.registry.system.date_of(t).month:
                return self.previous_business_day(t)
            return candidate
        raise CalendarError(f"unknown roll convention {convention!r}")
