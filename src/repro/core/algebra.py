"""The calendar algebra: ``foreach`` (dicing), selection (slicing), caloperate.

This module implements the operator set of section 3.1:

* :func:`foreach` — the strict (``:Op:``) and relaxed (``.Op.``) *foreach*
  operator.  With an interval as right operand the result is order-1; with a
  calendar as right operand the result is order-2 (one sub-calendar per
  right-hand element) for *grouping* listops, or stays order-1 for
  *filtering* listops such as ``intersects`` (see
  :class:`repro.core.interval.Listop`).  A grouped result is stored as
  one member lane pair plus each group's start and end index into it
  (``Calendar._from_groups``), never as one object per group.
* :func:`select` — positional selection ``[x]/C`` with integers, ``n``
  (last), negatives (from the end), lists and ranges.  On calendars of order
  greater than one a *singleton* predicate reduces the order by one, exactly
  as in the paper's ``[3]/WEEKS:overlaps:Year-1993`` example.  On a grouped
  calendar the predicate is resolved once per distinct group length and
  the picks are gathered from the member lanes.
* :func:`label_select` — the bare selection ``1993/YEARS`` by element label.
* :func:`caloperate` — derives a calendar by circularly grouping consecutive
  intervals of an existing calendar (``caloperate(YEARS, *; 7) = WEEKS``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Sequence

from repro.core import columnar
from repro.core.calendar import Calendar, Label
from repro.core.columnar import IntervalColumns
from repro.core.errors import CalendarError, OperatorError, SelectionError
from repro.core.interval import Interval, Listop, get_listop

#: The canonical predicate of every builtin listop, keyed by surface name.
#: The columnar sweep kernels encode these relations as integer lane
#: comparisons, so they may only run when the registered listop still
#: *is* the builtin (``register_listop(..., replace=True)`` can swap a
#: name's predicate, which must disable the sweep for that name).
_BUILTIN_PREDICATES = {
    "overlaps": Interval.overlaps,
    "during": Interval.during,
    "contains": Interval.contains,
    "meets": Interval.meets,
    "<": Interval.before,
    "<=": Interval.starts_before,
    "intersects": Interval.overlaps,
    "starts": Interval.starts,
    "finishes": Interval.finishes,
    "equals": Interval.equals,
}

#: Inverse listop per name: ``member op ref`` iff ``ref inverse member``
#: (used to window the reference side of filtering listops).
_INVERSE = {"during": "contains", "contains": "during",
            "overlaps": "overlaps", "intersects": "intersects",
            "equals": "equals"}


def _sweepable(op: Listop) -> bool:
    """True when ``op`` is a builtin whose sweep kernel is valid."""
    return _BUILTIN_PREDICATES.get(op.name) is op.predicate

__all__ = [
    "foreach",
    "select",
    "label_select",
    "caloperate",
    "SelectionPredicate",
    "LAST",
]


# ---------------------------------------------------------------------------
# foreach
# ---------------------------------------------------------------------------

def _scan(op: Listop, cal: Calendar, ref: Interval,
          strict: bool) -> list[Interval]:
    """Members of ``cal`` relating to ``ref`` under a listop without a
    lane kernel (user-registered, or a builtin name whose predicate was
    replaced): one plain ``op(iv, ref)`` scan, no narrowing by name."""
    if not (strict and op.clips):
        return [iv for iv in cal.elements if op(iv, ref)]
    out: list[Interval] = []
    for iv in cal.elements:
        if op(iv, ref):
            clipped = iv.intersect(ref)
            # The paper excludes the empty interval (its epsilon) from
            # strict results.
            if clipped is not None:
                out.append(clipped)
    return out


def _foreach_interval(op: Listop, cal: Calendar, ref: Interval,
                      strict: bool) -> Calendar:
    """Apply ``op`` between every element of order-1 ``cal`` and ``ref``."""
    if _sweepable(op):
        out = columnar.sweep_one(cal.columns, op.name, ref.lo, ref.hi,
                                 strict and op.clips)
        return Calendar._from_columns(out, cal.granularity)
    return Calendar.from_intervals(_scan(op, cal, ref, strict),
                                   cal.granularity)


def _foreach_filtering(op: Listop, cal: Calendar, ref: Calendar,
                       strict: bool) -> Calendar:
    """Filtering listops treat ``ref`` as a set; the result stays order-1."""
    if _sweepable(op):
        return _filtering_columnar(op, cal.columns, ref.columns, strict,
                                   cal.granularity)
    result: list[Interval] = []
    for iv in cal.elements:
        matches = [r for r in ref.elements if op(iv, r)]
        if not matches:
            continue
        if strict and op.clips:
            for r in matches:
                clipped = iv.intersect(r)
                if clipped is not None:
                    result.append(clipped)
        else:
            result.append(iv)
    return Calendar.from_intervals(result, cal.granularity)


def _filtering_columnar(op: Listop, mem: IntervalColumns,
                        refs: IntervalColumns, strict: bool,
                        granularity) -> Calendar:
    """Pure-integer filtering foreach: keep (or clip) members relating to
    any reference, windowing the reference lanes by the inverse listop."""
    predicate = columnar.INT_PREDICATES[op.name]
    inverse = _INVERSE.get(op.name)
    clip = strict and op.clips
    rlos, rhis = refs.los, refs.his
    nrefs = len(rlos)
    mlos, mhis = mem.los, mem.his
    out_los: list[int] = []
    out_his: list[int] = []
    for i in range(len(mlos)):
        mlo = mlos[i]
        mhi = mhis[i]
        if inverse is not None:
            start, end, exact = columnar.group_range(refs, inverse, mlo, mhi)
        else:
            start, end, exact = 0, nrefs, False
        if not clip:
            if exact:
                matched = end > start
            else:
                matched = any(predicate(mlo, mhi, rlos[k], rhis[k])
                              for k in range(start, end))
            if matched:
                out_los.append(mlo)
                out_his.append(mhi)
            continue
        for k in range(start, end):
            rlo = rlos[k]
            rhi = rhis[k]
            if not exact and not predicate(mlo, mhi, rlo, rhi):
                continue
            plo = mlo if mlo > rlo else rlo
            phi = mhi if mhi < rhi else rhi
            if plo <= phi:
                out_los.append(plo)
                out_his.append(phi)
    out = IntervalColumns.from_lists(out_los, out_his)
    return Calendar._from_columns(out, granularity)


def foreach(op: "Listop | str", cal: Calendar,
            ref: "Calendar | Interval", strict: bool = True) -> Calendar:
    """The paper's *foreach* operator ``{C :Op: I}`` / ``{C .Op. I}``.

    ``cal`` must be order-1 (apply :meth:`Calendar.flatten` first if
    needed).  ``ref`` may be an :class:`Interval`, an order-1 calendar or a
    deeper calendar (handled by recursing on the right operand, adding one
    level of structure per order).
    """
    if isinstance(op, str):
        op = get_listop(op)
    if cal.order != 1:
        raise OperatorError(
            f"foreach expects an order-1 left operand, got order {cal.order}")
    if isinstance(ref, Interval):
        return _foreach_interval(op, cal, ref, strict)
    if not isinstance(ref, Calendar):
        raise OperatorError(f"foreach right operand must be a calendar or "
                            f"interval, got {ref!r}")
    if ref.order == 1:
        if op.shape == "filtering":
            return _foreach_filtering(op, cal, ref, strict)
        if _sweepable(op):
            members, starts, ends, index = columnar.foreach_groups(
                cal.columns, ref.columns, op.name, strict and op.clips)
        else:
            members, starts, ends, index = columnar.concat_groups(
                [_foreach_interval(op, cal, r, strict).columns
                 for r in ref])
        labels = None
        if ref.labels is not None:
            labels = tuple(ref.labels[i] for i in index)
        return Calendar._from_groups(members, starts, ends, cal.granularity,
                                     cal.granularity, labels)
    # Deeper right operand: recurse per sub-calendar.
    subs = [foreach(op, cal, sub, strict) for sub in ref.elements]
    subs = [s for s in subs if not s.is_empty()]
    return Calendar.from_calendars(subs, cal.granularity)


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

class _Last:
    """Sentinel for the paper's ``n`` (select the last interval)."""

    def __repr__(self) -> str:
        return "n"


LAST = _Last()


@dataclass(frozen=True)
class SelectionPredicate:
    """The bracketed part of ``[x]/C``.

    ``items`` holds integers (1-based; negatives select from the end), the
    :data:`LAST` sentinel, and ``(start, end)`` range tuples (inclusive,
    1-based, e.g. ``[2-4]``).
    """

    items: tuple

    def __post_init__(self) -> None:
        if not self.items:
            raise SelectionError("empty selection predicate")
        for item in self.items:
            if item is LAST:
                continue
            if isinstance(item, tuple):
                start, end = item
                if start == 0 or end == 0 or start > end:
                    raise SelectionError(f"bad selection range {item!r}")
                continue
            if isinstance(item, int) and not isinstance(item, bool):
                if item == 0:
                    raise SelectionError("selection index 0 is not allowed "
                                         "(indices are 1-based)")
                continue
            raise SelectionError(f"bad selection item {item!r}")

    @classmethod
    def of(cls, *items) -> "SelectionPredicate":
        return cls(tuple(items))

    def is_singleton(self) -> bool:
        """True when the predicate picks at most one element."""
        return len(self.items) == 1 and not isinstance(self.items[0], tuple)

    def positions(self, length: int) -> list[int]:
        """Resolve to 0-based positions within a list of ``length`` elements.

        Out-of-range indices are skipped (a month with only two full weeks
        contributes nothing to "the third week of every month").
        """
        chosen: list[int] = []
        for item in self.items:
            if item is LAST:
                if length:
                    chosen.append(length - 1)
            elif isinstance(item, tuple):
                start, end = item
                for k in range(start, end + 1):
                    pos = self._resolve(k, length)
                    if pos is not None:
                        chosen.append(pos)
            else:
                pos = self._resolve(item, length)
                if pos is not None:
                    chosen.append(pos)
        # keep calendar order, drop duplicates
        return sorted(set(chosen))

    @staticmethod
    def _resolve(index: int, length: int) -> int | None:
        if index > 0:
            pos = index - 1
        else:
            pos = length + index
        if 0 <= pos < length:
            return pos
        return None

    def __str__(self) -> str:
        parts = []
        for item in self.items:
            if item is LAST:
                parts.append("n")
            elif isinstance(item, tuple):
                parts.append(f"{item[0]}-{item[1]}")
            else:
                parts.append(str(item))
        return "[" + ";".join(parts) + "]"


def _select_order1(cal: Calendar, pred: SelectionPredicate) -> Calendar:
    positions = pred.positions(len(cal))
    labels = None
    if cal.labels is not None:
        labels = tuple(cal.labels[p] for p in positions)
    cols = cal.columns
    # Index straight into the columns: a contiguous selection is a
    # zero-copy slice, anything else gathers into fresh buffers.
    if positions and positions[-1] - positions[0] + 1 == len(positions):
        out = cols.slice(positions[0], positions[-1] + 1)
    else:
        out = cols.take(positions)
    return Calendar._from_columns(out, cal.granularity, labels)


def _select_groups(cal: Calendar, pred: SelectionPredicate) -> Calendar:
    """Selection over a grouped calendar's lanes: positions are resolved
    once per distinct group length, as runs of consecutive picks, and the
    picks are gathered from the member lanes in one pass."""
    members, group_starts, group_ends = cal.group_lanes
    singleton = pred.is_singleton()
    runs_of: dict[int, list[tuple[int, int]]] = {}
    run_starts: list[int] = []
    run_ends: list[int] = []
    # Per picked group, the number of runs gathered up to its end.
    runs_upto = array("q", (0,))
    for g in range(len(group_starts)):
        base = group_starts[g]
        length = group_ends[g] - base
        runs = runs_of.get(length)
        if runs is None:
            runs = runs_of[length] = _runs(pred.positions(length))
        if not runs:
            continue
        if singleton:
            run_starts.append(base + runs[0][0])
            continue
        for a, b in runs:
            run_starts.append(base + a)
            run_ends.append(base + b)
        runs_upto.append(len(run_ends))
    if singleton:
        # One pick per group: an index gather beats one range copy each.
        return Calendar._from_columns(members.take(run_starts),
                                      cal.granularity)
    picked, run_offsets = columnar.gather_ranges(members, run_starts,
                                                 run_ends)
    offsets = array("q", [run_offsets[k] for k in runs_upto])
    return Calendar._from_groups(picked, offsets[:-1], offsets[1:],
                                 cal.granularity, cal._member_granularity)


def _runs(positions: list[int]) -> list[tuple[int, int]]:
    """Sorted positions as ``[a, b)`` runs of consecutive positions."""
    runs: list[tuple[int, int]] = []
    for p in positions:
        if runs and runs[-1][1] == p:
            runs[-1] = (runs[-1][0], p + 1)
        else:
            runs.append((p, p + 1))
    return runs


def select(cal: Calendar, pred: SelectionPredicate) -> Calendar:
    """Positional selection ``[x]/C``.

    On an order-1 calendar the predicate selects elements positionally.  On
    an order-k calendar the predicate is applied to every order-(k-1)
    component; a singleton predicate reduces the order by one (the paper's
    "third week of every month" example yields a flat calendar), while a
    multi-element predicate preserves the nesting.  Outer labels are
    dropped either way.
    """
    if cal.order == 1:
        return _select_order1(cal, pred)
    if cal.group_lanes is not None:
        return _select_groups(cal, pred)
    picked = [select(sub, pred) for sub in cal.elements]
    if pred.is_singleton():
        if cal.order == 2:
            # p[0] materialises a single Interval (never the full tuple).
            intervals = [p[0] for p in picked if len(p)]
            return Calendar.from_intervals(intervals, cal.granularity)
        subs = [p for p in picked if not p.is_empty()]
        return Calendar.from_calendars(subs, cal.granularity)
    subs = [p for p in picked if not p.is_empty()]
    return Calendar.from_calendars(subs, cal.granularity)


def label_select(cal: Calendar, label: Label) -> Calendar:
    """Bare selection by label, e.g. ``1993/YEARS``.

    The result is an order-1 calendar holding the labelled interval (empty
    when the label is absent).
    """
    if cal.order != 1:
        raise SelectionError("label selection is defined on order-1 calendars")
    if cal.labels is None:
        raise SelectionError(
            "calendar carries no labels; use a bracketed positional selection")
    idx = cal.find_label(label)
    if idx is None:
        return Calendar.from_intervals([], cal.granularity)
    return Calendar.from_intervals([cal.elements[idx]], cal.granularity,
                                   [label])


# ---------------------------------------------------------------------------
# caloperate
# ---------------------------------------------------------------------------

def caloperate(cal: Calendar, counts: Sequence[int],
               end: int | None = None) -> Calendar:
    """Derive a calendar by grouping consecutive intervals of ``cal``.

    ``caloperate(C, (x1, …, xn))`` unions the first ``x1`` intervals of
    ``C`` into the first result interval, the next ``x2`` into the second,
    and so on, treating the count list as circular (section 3.2).  ``end``
    bounds the result (``*`` in the paper's syntax means "no bound"); a
    trailing partial group is kept, clipped to ``end`` when given.
    """
    if cal.order != 1:
        raise CalendarError("caloperate is defined on order-1 calendars")
    if not counts:
        raise CalendarError("caloperate needs at least one group size")
    for c in counts:
        if not isinstance(c, int) or isinstance(c, bool) or c <= 0:
            raise CalendarError(f"group sizes must be positive ints, got {c!r}")
    n = len(cal)
    cols = cal.columns
    # Hull extraction straight from the lanes; sorted lanes reduce
    # min/max over the chunk to its boundary entries.
    los, his = cols.los, cols.his
    lo_sorted = cols.lo_sorted
    hi_sorted = cols.hi_sorted
    out_los: list[int] = []
    out_his: list[int] = []
    i = 0
    group = 0
    while i < n:
        j = min(i + counts[group % len(counts)], n)
        hlo = los[i] if lo_sorted else min(los[i:j])
        hhi = his[j - 1] if hi_sorted else max(his[i:j])
        if end is not None:
            if hlo > end:
                break
            if hhi > end:
                clip = Interval(hlo, end)
                out_los.append(clip.lo)
                out_his.append(clip.hi)
                break
        out_los.append(hlo)
        out_his.append(hhi)
        i = j
        group += 1
    out = IntervalColumns.from_lists(out_los, out_his)
    return Calendar._from_columns(out, cal.granularity)
