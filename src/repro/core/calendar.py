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

An order-2 calendar built by the grouping kernels (``foreach``,
selection, window clipping) is *grouped*: it holds one member column
pair and two ``array('q')`` bound lanes, group ``g`` being
``members[starts[g]:ends[g]]``.  Groups that tile the members (a day
tiling grouped by week, a gathered selection) make :meth:`flatten`
return the member lanes uncopied; groups may also overlap or skip
members (``DAYS:<:WEEKS`` groups are prefixes of one DAYS lane), so
they never cost more than two integers each.  Sub-calendars exist only
when :attr:`elements` (or iteration) asks for them, as zero-copy
slices; ``len``, :meth:`flatten`, :meth:`leaf_count`, :meth:`iter_pairs`,
:meth:`span`, :meth:`to_pairs`, ``str``, ``==`` and ``hash`` read the
lanes.  A grouped calendar equals (and hashes like) the same value built
with :meth:`from_calendars`, which, like every order >= 3 calendar,
keeps a tuple of sub-calendars.
"""

from __future__ import annotations

import bisect

from array import array
from itertools import chain
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

    #: The grouped order-2 form built by the algebra kernels (see
    #: :meth:`_from_groups`): one member lane pair, the groups' start
    #: and end indices into it and the members' granularity.  ``None``
    #: on every other calendar.
    _members: IntervalColumns | None = None
    _starts: "array | None" = None
    _ends: "array | None" = None
    _member_granularity: Granularity | None = None

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
    def _from_groups(cls, members: IntervalColumns, starts: array,
                     ends: array, granularity: Granularity | None,
                     member_granularity: Granularity | None,
                     labels: tuple | None = None) -> "Calendar":
        """Trusted grouped order-2 constructor (no checks).

        Group ``g`` is ``members[starts[g]:ends[g]]``; every group is
        non-empty (the kernels drop empty groups, the paper's ε
        exclusion) and ``labels``, when given, parallels the groups.
        Sub-calendars are materialised only on demand, as zero-copy
        slices of ``members`` carrying ``member_granularity``.
        """
        self = cls.__new__(cls)
        self._mat = None
        self._cols = None
        self._members = members
        self._starts = starts
        self._ends = ends
        self._member_granularity = member_granularity
        self.order = 2
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
    def group_lanes(self) -> "tuple[IntervalColumns, array, array] | None":
        """``(members, starts, ends)`` of a grouped order-2 calendar, else
        None."""
        if self._members is None:
            return None
        return self._members, self._starts, self._ends

    @property
    def elements(self) -> tuple:
        """The element tuple (lazily materialised for order-1 and grouped
        order-2 calendars)."""
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
        if cols is None:
            mat = tuple(self._group(g) for g in range(len(self)))
        else:
            _of = Interval._of
            mat = tuple(_of(lo, hi) for lo, hi in zip(cols.los, cols.his))
        self._mat = mat
        if mat:
            columnar.MATERIALISATIONS.inc()
        return mat

    def _group(self, g: int) -> "Calendar":
        """Sub-calendar ``g`` of a grouped calendar (a zero-copy view)."""
        return Calendar._from_columns(
            self._members.slice(self._starts[g], self._ends[g]),
            self._member_granularity)

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
        if self._members is not None and other._members is not None:
            return (self._member_granularity == other._member_granularity
                    and self._group_lengths() == other._group_lengths()
                    and self.flatten().columns.equal(
                        other.flatten().columns))
        return self.elements == other.elements

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        if self.order == 1:
            return hash((self.to_pairs(), self.order, self.granularity))
        if self.order == 2:
            # Leaf lanes and group lengths, so a grouped calendar and its
            # from_calendars twin hash alike without materialising.
            leaves = self.flatten().columns
            return hash((leaves.tobytes(), self._group_lengths().tobytes(),
                         self.order, self.granularity))
        return hash((self.elements, self.order, self.granularity))

    def _group_lengths(self) -> array:
        """The sizes of an order-2 calendar's groups."""
        if self._members is not None:
            return array("q", [e - s for s, e in zip(self._starts,
                                                     self._ends)])
        return array("q", [len(sub) for sub in self.elements])

    # -- basic inspection -----------------------------------------------------

    def __len__(self) -> int:
        cols = self._cols
        if cols is not None:
            return len(cols)
        starts = self._starts
        if starts is not None:
            return len(starts)
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
        if self._mat is None and isinstance(index, int):
            if cols is not None:
                return Interval._of(cols.los[index], cols.his[index])
            if self._starts is not None:
                return self._group(range(len(self))[index])
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
        if self._cols is None and self._members is None:
            return Calendar(self.elements, self.order, granularity, labels)
        if labels is not None and len(labels) != len(self):
            raise CalendarError("labels must parallel elements")
        if self._members is not None:
            return Calendar._from_groups(self._members, self._starts,
                                         self._ends, granularity,
                                         self._member_granularity, labels)
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
            return iter(self)
        _of = Interval._of
        return (_of(lo, hi) for lo, hi in self.iter_pairs())

    def iter_pairs(self) -> Iterator[tuple[int, int]]:
        """Depth-first ``(lo, hi)`` leaf pairs — no ``Interval`` objects,
        and no copy of overlapping groups."""
        if self.order == 1:
            return zip(self._cols.los, self._cols.his)
        if self._members is not None:
            return chain.from_iterable(self._group_pairs())
        return chain.from_iterable(el.iter_pairs() for el in self.elements)

    def flatten(self) -> "Calendar":
        """Collapse to order 1, preserving depth-first leaf order.

        A grouped calendar whose groups tile a run of its members returns
        that run without a copy and gathers its groups otherwise; any
        other nesting concatenates its order-1 leaves' lanes (each
        already valid, so nothing is re-checked).
        """
        if self.order == 1:
            return self
        if self._members is not None:
            leaves = columnar.gather_ranges(self._members, self._starts,
                                            self._ends)[0]
        else:
            leaves = columnar.concat_columns(
                [el.flatten().columns for el in self.elements])
        return Calendar._from_columns(leaves, self.granularity)

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
        members = self._members
        if members is not None and len(self) and members.hi_sorted:
            return Interval._of(members.los[min(self._starts)],
                                members.his[max(self._ends) - 1])
        lo = hi = None
        for plo, phi in self.iter_pairs():
            lo = plo if lo is None else min(lo, plo)
            hi = phi if hi is None else max(hi, phi)
        if lo is None or hi is None:
            return None
        return Interval(lo, hi)

    def groups_overlapping(self, lo: int, hi: int) -> "Calendar":
        """The groups of a grouped calendar whose span overlaps
        ``[lo, hi]``, whole and with their labels (none when no group
        is kept); the result shares this calendar's member lanes."""
        members, starts, ends = self._members, self._starts, self._ends
        los, his = members.los, members.his
        groups = range(len(starts))
        if members.hi_sorted:
            kept = [g for g in groups
                    if los[starts[g]] <= hi and his[ends[g] - 1] >= lo]
        else:
            kept = [g for g in groups
                    if min(los[starts[g]:ends[g]]) <= hi
                    and max(his[starts[g]:ends[g]]) >= lo]
        if kept and len(kept) == len(starts):
            return self
        labels = None
        if self.labels is not None and kept:
            labels = tuple(self.labels[g] for g in kept)
        return Calendar._from_groups(
            members, array("q", [starts[g] for g in kept]),
            array("q", [ends[g] for g in kept]), self.granularity,
            self._member_granularity, labels)

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
        if self._members is not None:
            return sum(self._ends) - sum(self._starts)
        return sum(el.leaf_count() for el in self.elements)

    def drop_empty(self) -> "Calendar":
        """Recursively remove empty sub-calendars (the paper's ε exclusion)."""
        if self.order == 1 or self._members is not None:
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
        elif self._members is not None:
            inner = ",".join(
                "{" + ",".join(f"({lo},{hi})" for lo, hi in group) + "}"
                for group in self._group_pairs())
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
        if self._members is not None:
            return tuple(tuple(group) for group in self._group_pairs())
        return tuple(el.to_pairs() for el in self.elements)

    def _group_pairs(self) -> Iterator:
        """Each group of a grouped calendar as a ``(lo, hi)`` iterator."""
        los, his = self._members.los, self._members.his
        return (zip(los[s:e], his[s:e])
                for s, e in zip(self._starts, self._ends))


#: The empty order-1 calendar.
EMPTY = Calendar()
