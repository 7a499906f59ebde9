"""The registry's memo of finished evaluation results.

Figure 1 gives every CALENDARS tuple a ``values`` column beside its
``eval-plan``: a calendar that has been computed keeps its value, and
the paper's evaluation-plan section asks that a calendar met more than
once be computed once.  :class:`ResultMemo` is that column for
evaluations over an arbitrary window: one LRU map from
``(kind, text, window, today, version)`` to the finished result, owned
by a :class:`~repro.catalog.registry.CalendarRegistry`.

It is bounded twice: by its entry count and by the number of intervals
its values keep alive (:func:`held_intervals`), so a stream of large
distinct results cannot grow it past a fixed memory budget.  A value
larger than the whole interval budget is not stored at all.

Only the registry's current catalog version is kept: storing a result
of a newer version drops every older entry (a define or drop makes them
unreachable), and a result computed under an older version than the
newest seen is not stored.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core.calendar import Calendar

__all__ = ["ResultMemo", "held_intervals"]


def _lane_length(lane) -> int:
    """Elements of the buffer a lane keeps alive: a ``memoryview``
    slice pins its whole base array."""
    if isinstance(lane, memoryview):
        return len(lane.obj)
    return len(lane)


def held_intervals(value) -> int:
    """The intervals a memoised ``value`` keeps alive (at least 1).

    Lanes that are views count their whole base buffer; a grouped
    order-2 calendar counts its member lanes plus one per group; other
    nested calendars count their elements plus their sub-calendars.
    Non-calendar values (a script's string) count 1.
    """
    if not isinstance(value, Calendar):
        return 1
    if value.order == 1:
        return max(1, _lane_length(value.columns.los))
    lanes = value.group_lanes
    if lanes is not None:
        return max(1, _lane_length(lanes[0].los) + len(lanes[1]))
    return max(1, len(value) + sum(held_intervals(el)
                                   for el in value.elements))


class ResultMemo:
    """LRU map of finished results bounded by entries and held intervals.

    Thread-safe; a get refreshes recency.  ``max_entries`` and
    ``max_intervals`` are plain attributes (tests shrink them).
    """

    #: Returned by :meth:`get` on a miss (``None`` is a storable value).
    MISSING = object()

    def __init__(self, max_entries: int = 256,
                 max_intervals: int = 200_000) -> None:
        self.max_entries = max_entries
        self.max_intervals = max_intervals
        self._entries: OrderedDict = OrderedDict()
        self._intervals = 0
        self._version = -1
        self._lock = threading.Lock()

    def get(self, key):
        """The value stored under ``key``, or :attr:`MISSING`."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return self.MISSING
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key, value, version: int) -> bool:
        """Store ``value`` computed under catalog ``version``; False when
        it was not stored (an older version, or over the budget)."""
        cost = held_intervals(value)
        if cost > self.max_intervals:
            return False
        with self._lock:
            if version < self._version:
                return False
            if version > self._version:
                self._entries.clear()
                self._intervals = 0
                self._version = version
            old = self._entries.pop(key, None)
            if old is not None:
                self._intervals -= old[1]
            self._entries[key] = (value, cost)
            self._intervals += cost
            while len(self._entries) > self.max_entries or \
                    self._intervals > self.max_intervals:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._intervals -= dropped
        return True

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
            self._intervals = 0

    def stats(self) -> dict:
        """``{"entries": n, "intervals": held}``."""
        with self._lock:
            return {"entries": len(self._entries),
                    "intervals": self._intervals}
