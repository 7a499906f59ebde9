"""Calendars: structured (order-n) collections of intervals.

Section 3.1 of the paper defines a *calendar* as a structured collection of
intervals whose *order* is the depth of the nesting:
``{(l1,u1), …, (ln,un)}`` is a calendar of order 1 and
``{S1, …, Sm}`` with each ``Si`` an order-1 calendar is a calendar of
order 2.

:class:`Calendar` is immutable.  Elements of an order-1 calendar are
:class:`~repro.core.interval.Interval` values kept in the order they were
supplied (calendars are *lists*, not sets — selection is positional);
elements of an order-k calendar (k > 1) are order-(k-1) calendars.

Optionally each element may carry a *label* (e.g. the YEARS calendar labels
its intervals with Gregorian year numbers) enabling the language's bare
label selection ``1993/YEARS``.

The set operations ``+`` (union), ``-`` (difference) and ``&``
(intersection) are defined on order-1 calendars with pointwise semantics;
``+`` keeps element boundaries where operands do not overlap (so that
positional selection remains meaningful), merging only genuinely
overlapping intervals.

Representation
--------------

Every order-1 calendar is *array-backed*: the endpoints live in an
:class:`~repro.core.columnar.IntervalColumns` pair of ``array('q')``
buffers and ``Interval`` objects are materialised lazily, only when a
caller crosses the public API boundary (:attr:`elements`,
:attr:`intervals`, iteration, indexing).  The hot kernels (set
operations, ``foreach`` dispatch, selection, caching) index straight
into the columns and never materialise.  An endpoint outside the int64
lanes raises :class:`~repro.core.errors.InvalidIntervalError` at
construction.
"""

from __future__ import annotations

import bisect

from typing import Iterator, Sequence

from repro.core import columnar
from repro.core.columnar import IntervalColumns
from repro.core.errors import CalendarError, InvalidIntervalError
from repro.core.granularity import Granularity
from repro.core.interval import Interval

__all__ = ["Calendar", "EMPTY"]

Label = int | str | None


def _rebuild(payload, order, granularity, labels):
    """Pickle/deepcopy reconstructor (memoryview slices don't pickle)."""
    if order == 1:
        return Calendar.from_intervals(payload, granularity, labels)
    return Calendar(tuple(payload), order, granularity, labels)


class Calendar:
    """An immutable structured collection of intervals.

    Construct order-1 calendars with :meth:`from_intervals` and deeper
    calendars with :meth:`from_calendars`; the raw constructor is mainly
    for internal use.
    """

    def __init__(self, elements: tuple = (), order: int = 1,
                 granularity: Granularity | None = None,
                 labels: tuple | None = None) -> None:
        elements = tuple(elements)
        if order < 1:
            raise CalendarError(f"calendar order must be >= 1, got {order}")
        if order == 1:
            for el in elements:
                if not isinstance(el, Interval):
                    raise CalendarError(
                        f"order-1 calendar elements must be intervals, got {el!r}")
        else:
            for el in elements:
                if not isinstance(el, Calendar) or el.order != order - 1:
                    raise CalendarError(
                        f"order-{order} calendar elements must be "
                        f"order-{order - 1} calendars, got {el!r}")
        if labels is not None and len(labels) != len(elements):
            raise CalendarError("labels must parallel elements")
        self._mat = elements
        self._cols = IntervalColumns.from_lists(
            [iv.lo for iv in elements],
            [iv.hi for iv in elements]) if order == 1 else None
        self.order = order
        self.granularity = granularity
        self.labels = labels

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_intervals(cls, intervals: Sequence["Interval | tuple[int, int]"],
                       granularity: Granularity | None = None,
                       labels: Sequence[Label] | None = None) -> "Calendar":
        """Build an order-1 calendar from intervals or ``(lo, hi)`` pairs.

        Endpoints go straight into the column buffers (a single pass,
        generator-friendly) and no ``Interval`` objects are created for
        tuple inputs.
        """
        label_tuple = tuple(labels) if labels is not None else None
        los: list[int] = []
        his: list[int] = []
        for value in intervals:
            if isinstance(value, Interval):
                los.append(value.lo)
                his.append(value.hi)
            elif isinstance(value, tuple) and len(value) == 2:
                lo, hi = value
                if not isinstance(lo, int) or not isinstance(hi, int) or \
                        isinstance(lo, bool) or isinstance(hi, bool):
                    raise InvalidIntervalError(
                        f"interval endpoints must be ints, got ({lo!r}, {hi!r})")
                if lo == 0 or hi == 0:
                    raise InvalidIntervalError(
                        f"interval endpoints may not be 0: ({lo}, {hi})")
                if lo > hi:
                    raise InvalidIntervalError(
                        f"interval lower bound exceeds upper bound: ({lo}, {hi})")
                los.append(lo)
                his.append(hi)
            else:
                raise InvalidIntervalError(
                    f"cannot interpret {value!r} as an interval")
        cols = IntervalColumns.from_lists(los, his)
        if label_tuple is not None and len(label_tuple) != len(cols):
            raise CalendarError("labels must parallel elements")
        return cls._from_columns(cols, granularity, label_tuple)

    @classmethod
    def _from_columns(cls, cols: IntervalColumns,
                      granularity: Granularity | None = None,
                      labels: tuple | None = None) -> "Calendar":
        """Trusted order-1 constructor over prebuilt columns (no checks)."""
        self = cls.__new__(cls)
        self._mat = None
        self._cols = cols
        self.order = 1
        self.granularity = granularity
        self.labels = labels
        return self

    @classmethod
    def from_calendars(cls, calendars: Sequence["Calendar"],
                       granularity: Granularity | None = None,
                       labels: Sequence[Label] | None = None) -> "Calendar":
        """Build an order-(k+1) calendar from order-k calendars."""
        cals = tuple(calendars)
        if not cals:
            return cls((), 2, granularity)
        sub_order = cals[0].order
        return cls(cals, sub_order + 1, granularity,
                   tuple(labels) if labels is not None else None)

    @classmethod
    def point(cls, t: int, granularity: Granularity | None = None) -> "Calendar":
        """An order-1 calendar holding the single instant ``t``."""
        return cls.from_intervals([(t, t)], granularity)

    @classmethod
    def interval(cls, lo: int, hi: int,
                 granularity: Granularity | None = None) -> "Calendar":
        """An order-1 calendar holding the single interval ``(lo, hi)``."""
        return cls.from_intervals([(lo, hi)], granularity)

    # -- representation --------------------------------------------------------

    @property
    def columns(self) -> IntervalColumns | None:
        """The backing endpoint columns (``None`` only above order 1)."""
        return self._cols

    @property
    def elements(self) -> tuple:
        """The element tuple (lazily materialised for order-1 calendars)."""
        mat = self._mat
        if mat is None:
            mat = self._materialise()
        return mat

    @property
    def intervals(self) -> tuple:
        """Alias of :attr:`elements` for order-1 calendars."""
        return self.elements

    def _materialise(self) -> tuple:
        cols = self._cols
        _of = Interval._of
        mat = tuple(_of(lo, hi) for lo, hi in zip(cols.los, cols.his))
        self._mat = mat
        if mat:
            columnar.MATERIALISATIONS.inc()
        return mat

    def __reduce__(self):
        payload = self.to_pairs() if self.order == 1 else self.elements
        return (_rebuild, (payload, self.order, self.granularity,
                           self.labels))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Calendar):
            return NotImplemented
        if self.order != other.order or \
                self.granularity != other.granularity:
            return False
        if self.order == 1:
            return self._cols.equal(other._cols)
        return self.elements == other.elements

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        if self.order == 1:
            return hash((self.to_pairs(), self.order, self.granularity))
        return hash((self.elements, self.order, self.granularity))

    # -- basic inspection -----------------------------------------------------

    def __len__(self) -> int:
        cols = self._cols
        if cols is not None:
            return len(cols)
        return len(self._mat)

    def __bool__(self) -> bool:
        """Paper semantics: a calendar is *false* when it is empty (null)."""
        return len(self) > 0

    def __iter__(self) -> Iterator:
        cols = self._cols
        if cols is not None and self._mat is None:
            return self._iter_lazy()
        return iter(self.elements)

    def _iter_lazy(self) -> Iterator[Interval]:
        cols = self._cols
        _of = Interval._of
        for lo, hi in zip(cols.los, cols.his):
            yield _of(lo, hi)

    def __getitem__(self, index):
        cols = self._cols
        if cols is not None and self._mat is None and isinstance(index, int):
            return Interval._of(cols.los[index], cols.his[index])
        return self.elements[index]

    def is_empty(self) -> bool:
        """True when the calendar has no elements (the paper's null)."""
        return len(self) == 0

    def with_granularity(self, granularity: Granularity) -> "Calendar":
        """A copy carrying the given granularity (shares the columns)."""
        return self._copy(granularity, self.labels)

    def with_labels(self, labels: Sequence[Label]) -> "Calendar":
        """A copy with per-element labels (for bare label selection)."""
        return self._copy(self.granularity, tuple(labels))

    def _copy(self, granularity, labels) -> "Calendar":
        if self._cols is None:
            return Calendar(self.elements, self.order, granularity, labels)
        if labels is not None and len(labels) != len(self):
            raise CalendarError("labels must parallel elements")
        return Calendar._from_columns(self._cols, granularity, labels)

    def label_of(self, index: int) -> Label:
        """The label of element ``index``, or None when unlabelled."""
        if self.labels is None:
            return None
        return self.labels[index]

    def find_label(self, label: Label) -> int | None:
        """Index of the element carrying ``label``, or ``None``."""
        if self.labels is None:
            return None
        try:
            return self.labels.index(label)
        except ValueError:
            return None

    # -- geometry -------------------------------------------------------------

    def iter_intervals(self) -> Iterator[Interval]:
        """Depth-first iteration over all leaf intervals."""
        if self.order == 1:
            yield from self
            return
        for el in self.elements:
            yield from el.iter_intervals()

    def iter_pairs(self) -> Iterator[tuple[int, int]]:
        """Depth-first ``(lo, hi)`` leaf pairs — no ``Interval`` objects."""
        if self.order == 1:
            cols = self._cols
            yield from zip(cols.los, cols.his)
            return
        for el in self.elements:
            yield from el.iter_pairs()

    def flatten(self) -> "Calendar":
        """Collapse to order 1, preserving depth-first leaf order."""
        if self.order == 1:
            return self
        return Calendar.from_intervals(self.iter_pairs(), self.granularity)

    def span(self) -> Interval | None:
        """Smallest interval covering the whole calendar, or ``None``."""
        cols = self._cols
        if cols is not None:
            if not len(cols):
                return None
            los, his = cols.los, cols.his
            lo = los[0] if cols.lo_sorted else min(los)
            hi = his[-1] if cols.hi_sorted else max(his)
            return Interval._of(lo, hi)
        lo = hi = None
        for plo, phi in self.iter_pairs():
            lo = plo if lo is None else min(lo, plo)
            hi = phi if hi is None else max(hi, phi)
        if lo is None or hi is None:
            return None
        return Interval(lo, hi)

    def contains_point(self, t: int) -> bool:
        """True when some leaf interval contains the axis point ``t``."""
        if t == 0:
            return False
        cols = self._cols
        if cols is not None and cols.hi_sorted:
            i = bisect.bisect_left(cols.his, t)
            return i < len(cols) and cols.los[i] <= t
        return any(lo <= t <= hi for lo, hi in self.iter_pairs())

    def leaf_count(self) -> int:
        """Total number of leaf intervals at any depth."""
        if self.order == 1:
            return len(self)
        return sum(el.leaf_count() for el in self.elements)

    def drop_empty(self) -> "Calendar":
        """Recursively remove empty sub-calendars (the paper's ε exclusion)."""
        if self.order == 1:
            return self
        kept: list[Calendar] = []
        kept_labels: list[Label] = []
        for i, el in enumerate(self.elements):
            sub = el.drop_empty()
            if sub.is_empty():
                continue
            kept.append(sub)
            kept_labels.append(self.label_of(i))
        labels = tuple(kept_labels) if self.labels is not None else None
        return Calendar(tuple(kept), self.order, self.granularity, labels)

    # -- pointwise set operations (order 1) ------------------------------------

    def _require_order1(self, op: str, other: "Calendar | None" = None) -> None:
        if self.order != 1 or (other is not None and other.order != 1):
            raise CalendarError(f"{op} is defined on order-1 calendars only")

    def union(self, other: "Calendar") -> "Calendar":
        """Pointwise union; merges only genuinely overlapping intervals."""
        self._require_order1("union", other)
        out = columnar.union_sweep(self._cols, other._cols)
        return Calendar._from_columns(out, self.granularity)

    def difference(self, other: "Calendar") -> "Calendar":
        """Pointwise difference, splitting partially covered intervals."""
        self._require_order1("difference", other)
        out = columnar.difference_sweep(self._cols, other._cols)
        return Calendar._from_columns(out, self.granularity)

    def intersection(self, other: "Calendar") -> "Calendar":
        """Pointwise intersection."""
        self._require_order1("intersection", other)
        out = columnar.intersection_sweep(self._cols, other._cols)
        return Calendar._from_columns(out, self.granularity)

    def shifted(self, delta: int) -> "Calendar":
        """A copy with every interval translated by ``delta`` ticks.

        Labels are dropped: a shifted unit no longer denotes the civil
        entity its label named.
        """
        self._require_order1("shift")
        out = columnar.shift_columns(self._cols, delta)
        return Calendar._from_columns(out, self.granularity)

    def __add__(self, other: "Calendar") -> "Calendar":
        return self.union(other)

    def __sub__(self, other: "Calendar") -> "Calendar":
        return self.difference(other)

    def __and__(self, other: "Calendar") -> "Calendar":
        return self.intersection(other)

    # -- presentation -----------------------------------------------------------

    def __str__(self) -> str:
        if self.order == 1:
            inner = ",".join(f"({lo},{hi})" for lo, hi in self.iter_pairs())
        else:
            inner = ",".join(str(el) for el in self.elements)
        return "{" + inner + "}"

    def __repr__(self) -> str:
        gran = f", granularity={self.granularity}" if self.granularity else ""
        return f"Calendar(order={self.order}, {self}{gran})"

    def to_pairs(self):
        """Plain nested tuples mirroring the paper's notation (for tests)."""
        if self.order == 1:
            return self._cols.pairs()
        return tuple(el.to_pairs() for el in self.elements)


#: The empty order-1 calendar.
EMPTY = Calendar()
