"""Array-backed interval storage and cache-efficient sweep kernels.

This is the one storage form of an order-1
:class:`~repro.core.calendar.Calendar`: its endpoints live in a pair of
``array('q')`` buffers (:class:`IntervalColumns`) and Python ``Interval``
objects are materialised only when a caller crosses the public API
boundary (``Calendar.elements``, iteration, indexing).  An endpoint
outside the int64 lanes raises
:class:`~repro.core.errors.InvalidIntervalError` when the columns are
built (:meth:`IntervalColumns.from_lists`, :func:`shift_columns`).

On top of that representation the hot kernels become single-pass,
cache-efficient sweeps over the arrays, following the gapless lane-sweep
scheme of Piatov et al. ("Cache-Efficient Sweeping-Based Interval Joins
for Extended Allen Relation Predicates", see PAPERS.md):

* :func:`union_sweep` / :func:`intersection_sweep` /
  :func:`difference_sweep` — merge-join set kernels over two endpoint
  column pairs, replacing per-interval ``Interval`` method calls with
  integer comparisons and replacing the final sort-and-merge with a
  linear pass whenever the join output comes out lo-sorted.
* :func:`group_range` — the extended-Allen lane table: for every builtin
  listop (``during``/``overlaps``/``meets``/``<``/``<=``/``contains``/
  ``starts``/``finishes``/``equals``/``intersects``) the members relating
  to a reference interval form a **contiguous index range** found by
  binary search when the lo (and usually hi) lanes are sorted — with both
  lanes sorted the range is *exact* (no per-member predicate calls at
  all) and a grouped foreach degenerates to two bisects per reference.
* :func:`foreach_groups` — the grouped-foreach kernel.  It returns the
  whole order-2 result as lanes: one member column pair plus each
  group's start and end index into it (``Calendar._from_groups``),
  never one object per group.  :func:`group_bounds` finds those
  integer bounds — for ``during`` and ``overlaps`` against a sorted
  reference tiling by the gapless sweep, whose start/end pointers only
  move forward — and unclipped groups keep the left operand's lanes as
  their members, uncopied; strict clips copy the ranges and patch group
  boundaries.  :func:`gather_ranges` turns ranges into one lane pair
  (a zero-copy slice when they tile, as a day tiling grouped by week
  or month does).

Zero-copy slice invariants (see docs/IMPLEMENTATION_NOTES.md §12):
column buffers are immutable once a view has been taken; a slice is a
``memoryview`` into its parent's buffer and keeps that buffer alive, so
a one-element group of a 100k-member calendar pins 16 bytes per parent
member — the trade accepted for copy-free grouping.  The same holds for
a grouped calendar whose members are a slice: it, its flattening and
every sub-calendar view keep the generated tiling's lanes alive.

The module is deliberately dependency-light (only ``repro.core.errors``)
so :mod:`repro.core.calendar` can build on it without import cycles; the
zero-skipping axis increments are inlined here (as they already are in
``matcache``) for the same reason.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Sequence

from repro.core.errors import InvalidIntervalError

__all__ = [
    "IntervalColumns",
    "MATERIALISATIONS",
    "union_sweep",
    "intersection_sweep",
    "difference_sweep",
    "group_range",
    "group_bounds",
    "foreach_groups",
    "gather_ranges",
    "concat_groups",
    "shift_columns",
    "concat_columns",
    "interval_join_pairs",
]

#: int64 bounds of the ``'q'`` typecode; an endpoint outside them raises
#: :class:`InvalidIntervalError`.
Q_MIN = -(2 ** 63)
Q_MAX = 2 ** 63 - 1


class _Counter:
    """A monotonically increasing observability counter.

    ``value`` may undercount slightly under free-threaded races; the
    counter is observability-only, never control flow.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self) -> None:
        self.value += 1

    def reset(self) -> None:
        self.value = 0


#: Number of times a columns-backed calendar materialised its full
#: ``Interval`` tuple (a boundary-crossing copy).  Surfaced by
#: ``Session.metrics`` / ``\cache`` as ``columnar.materialisations``;
#: fused pipelines are expected to keep it at 0.
MATERIALISATIONS = _Counter()


def _is_nondecreasing(values) -> bool:
    previous = None
    for v in values:
        if previous is not None and v < previous:
            return False
        previous = v
    return True


class IntervalColumns:
    """Paired lo/hi endpoint buffers with lazily computed lane flags.

    ``los``/``his`` are ``array('q')`` buffers or ``memoryview`` slices
    of a parent's buffers (``parent`` keeps the owning buffer alive).
    ``labels`` optionally carries the aligned label tuple so cache
    slicing can move labels with the endpoints.

    Flags — ``lo_sorted`` (lo lane nondecreasing), ``hi_sorted``
    (*both* lanes nondecreasing) and
    ``disjoint`` (lo-sorted with strictly separated intervals) — are
    computed once on first use and inherited by slices when the parent
    already knows them to be True.
    """

    __slots__ = ("los", "his", "labels", "parent",
                 "_lo_sorted", "_hi_sorted", "_disjoint")

    def __init__(self, los, his, labels=None, parent=None,
                 lo_sorted=None, hi_sorted=None, disjoint=None) -> None:
        self.los = los
        self.his = his
        self.labels = labels
        self.parent = parent
        self._lo_sorted = lo_sorted
        self._hi_sorted = hi_sorted
        self._disjoint = disjoint

    # -- construction -----------------------------------------------------

    @classmethod
    def from_lists(cls, los: Sequence[int], his: Sequence[int],
                   labels=None, *, lo_sorted=None, hi_sorted=None,
                   disjoint=None) -> "IntervalColumns":
        """Pack endpoint lists; raises :class:`InvalidIntervalError` when
        an endpoint lies outside int64."""
        try:
            lo_lane, hi_lane = array("q", los), array("q", his)
        except OverflowError:
            raise InvalidIntervalError(
                f"interval endpoint outside the int64 range "
                f"[{Q_MIN}, {Q_MAX}]") from None
        return cls(lo_lane, hi_lane, labels, lo_sorted=lo_sorted,
                   hi_sorted=hi_sorted, disjoint=disjoint)

    @classmethod
    def empty(cls) -> "IntervalColumns":
        return cls(array("q"), array("q"), None,
                   lo_sorted=True, hi_sorted=True, disjoint=True)

    # -- lane flags -------------------------------------------------------

    @property
    def lo_sorted(self) -> bool:
        flag = self._lo_sorted
        if flag is None:
            flag = self._lo_sorted = _is_nondecreasing(self.los)
        return flag

    @property
    def hi_sorted(self) -> bool:
        flag = self._hi_sorted
        if flag is None:
            flag = self._hi_sorted = (self.lo_sorted
                                      and _is_nondecreasing(self.his))
        return flag

    @property
    def disjoint(self) -> bool:
        """Lo-sorted with every interval strictly before the next one."""
        flag = self._disjoint
        if flag is None:
            if not self.lo_sorted:
                flag = False
            else:
                flag = True
                his, los = self.his, self.los
                for i in range(len(los) - 1):
                    if his[i] >= los[i + 1]:
                        flag = False
                        break
            self._disjoint = flag
            if flag:
                self._hi_sorted = True
        return flag

    # -- views ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.los)

    def slice(self, start: int, end: int) -> "IntervalColumns":
        """Zero-copy ``[start:end)`` view (labels slice alongside)."""
        n = len(self.los)
        if start <= 0 and end >= n:
            return self
        los = memoryview(self.los)[start:end]
        his = memoryview(self.his)[start:end]
        labels = self.labels[start:end] if self.labels is not None else None
        return IntervalColumns(
            los, his, labels, parent=self,
            lo_sorted=True if self._lo_sorted else None,
            hi_sorted=True if self._hi_sorted else None,
            disjoint=True if self._disjoint else None)

    def copy_slice(self, start: int, end: int) -> "IntervalColumns":
        """A *writable* copy of ``[start:end)`` (for boundary patching)."""
        los = array("q")
        his = array("q")
        los.frombytes(memoryview(self.los)[start:end].tobytes())
        his.frombytes(memoryview(self.his)[start:end].tobytes())
        labels = self.labels[start:end] if self.labels is not None else None
        return IntervalColumns(
            los, his, labels,
            lo_sorted=True if self._lo_sorted else None,
            hi_sorted=True if self._hi_sorted else None,
            disjoint=True if self._disjoint else None)

    def take(self, positions: Sequence[int],
             labels=None) -> "IntervalColumns":
        """New columns holding the intervals at ``positions`` (in order)."""
        los, his = self.los, self.his
        return IntervalColumns(
            array("q", [los[p] for p in positions]),
            array("q", [his[p] for p in positions]),
            labels)

    def pairs(self) -> tuple:
        """The ``((lo, hi), …)`` tuple — no ``Interval`` objects."""
        return tuple(zip(self.los, self.his))

    def tobytes(self) -> bytes:
        """Both lanes as raw little-endian int64 bytes (lo lane first)."""
        return memoryview(self.los).tobytes() + \
            memoryview(self.his).tobytes()

    def equal(self, other: "IntervalColumns") -> bool:
        """Endpoint-wise equality via a raw buffer compare."""
        if len(self) != len(other):
            return False
        return self.tobytes() == other.tobytes()


def concat_columns(parts: "Sequence[IntervalColumns]") -> IntervalColumns:
    """Concatenate column sets into one owning buffer pair."""
    los = array("q")
    his = array("q")
    any_labels = any(p.labels is not None for p in parts)
    labels: "list | None" = [] if any_labels else None
    for part in parts:
        los.frombytes(memoryview(part.los).tobytes())
        his.frombytes(memoryview(part.his).tobytes())
        if labels is not None:
            if part.labels is not None:
                labels.extend(part.labels)
            else:
                labels.extend([None] * len(part))
    return IntervalColumns(los, his,
                           tuple(labels) if labels is not None else None)


# ---------------------------------------------------------------------------
# Zero-skipping axis helpers (inlined; see repro.core.interval for the
# canonical definitions)
# ---------------------------------------------------------------------------

def _axis_dec(t: int) -> int:
    return t - 1 if t != 1 else -1


def _axis_inc(t: int) -> int:
    return t + 1 if t != -1 else 1


# ---------------------------------------------------------------------------
# Set-operation sweeps
# ---------------------------------------------------------------------------

def _sorted_lanes(cols: IntervalColumns):
    """``(los, his)`` in ``(lo, hi)`` lexicographic order.

    Zero-copy when the columns are hi-sorted (lo and hi lanes sorted
    together imply lexicographic order) or lo-sorted with hi-ordered
    ties; otherwise a full sort.
    """
    if cols.hi_sorted:
        return cols.los, cols.his
    if cols.lo_sorted and _ties_ordered(cols.los, cols.his):
        return cols.los, cols.his
    pairs = sorted(zip(cols.los, cols.his))
    return [p[0] for p in pairs], [p[1] for p in pairs]


def _ties_ordered(los, his) -> bool:
    """True when equal-lo runs are hi-ordered (lexicographic overall)."""
    for i in range(len(los) - 1):
        if los[i] == los[i + 1] and his[i] > his[i + 1]:
            return False
    return True


def _merged_result(out_los: list, out_his: list,
                   sorted_out: bool) -> IntervalColumns:
    """Sort-if-needed then linearly merge genuinely overlapping pieces.

    Pieces sorted by ``(lo, hi)``; a piece merges into its predecessor
    when it overlaps (``lo <= previous hi``); adjacency is preserved.
    """
    if not sorted_out:
        pairs = sorted(zip(out_los, out_his))
        out_los = [p[0] for p in pairs]
        out_his = [p[1] for p in pairs]
    merged_lo: list[int] = []
    merged_hi: list[int] = []
    append_lo = merged_lo.append
    append_hi = merged_hi.append
    last_hi = None
    for k in range(len(out_los)):
        lo = out_los[k]
        hi = out_his[k]
        if last_hi is not None and lo <= last_hi:
            if hi > last_hi:
                merged_hi[-1] = last_hi = hi
        else:
            append_lo(lo)
            append_hi(hi)
            last_hi = hi
    return IntervalColumns(array("q", merged_lo), array("q", merged_hi),
                           None, lo_sorted=True, hi_sorted=True,
                           disjoint=True)


def union_sweep(a: IntervalColumns, b: IntervalColumns) -> IntervalColumns:
    """Pointwise union: merge both operands, then the linear
    overlap-merge (adjacent intervals stay separate).

    The merge itself is delegated to :func:`sorted` over the
    concatenated ``(lo, hi)`` pairs: Timsort detects the two sorted
    runs and gallops through them with C-level tuple comparisons,
    which handily beats an interpreted two-pointer loop.
    """
    alos, ahis = _sorted_lanes(a)
    blos, bhis = _sorted_lanes(b)
    pairs = list(zip(alos, ahis))
    pairs += zip(blos, bhis)
    pairs.sort()
    return _merged_result([p[0] for p in pairs], [p[1] for p in pairs],
                          True)


def intersection_sweep(a: IntervalColumns,
                       b: IntervalColumns) -> IntervalColumns:
    """Pointwise intersection: gapless merge-join over sorted lanes.

    Probes ``a`` in lo order while a start pointer skips ``b`` entries
    that ended before the probe begins; every scanned pair overlaps, so
    the inner loop's work equals the output size.  The piece multiset is
    order-independent, which is what makes probing in sorted order (and
    sorting unsorted operands first) exactly equivalent to probing in
    calendar order followed by sort-and-merge.
    """
    alos, ahis = _sorted_lanes(a)
    blos, bhis = _sorted_lanes(b)
    na, nb = len(alos), len(blos)
    out_los: list[int] = []
    out_his: list[int] = []
    append_lo = out_los.append
    append_hi = out_his.append
    s = 0
    sorted_out = True
    last_lo = None
    for k in range(na):
        lo = alos[k]
        hi = ahis[k]
        while s < nb and bhis[s] < lo:
            s += 1
        j = s
        while j < nb and blos[j] <= hi:
            blo = blos[j]
            bhi = bhis[j]
            j += 1
            if bhi < lo:
                # The s-pointer only skips the permanently-dead prefix;
                # when b's hi lane is unsorted, later entries may still
                # end before this probe starts.
                continue
            plo = lo if lo > blo else blo
            phi = hi if hi < bhi else bhi
            append_lo(plo)
            append_hi(phi)
            if last_lo is not None and plo < last_lo:
                sorted_out = False
            last_lo = plo
    return _merged_result(out_los, out_his,
                          sorted_out and _ties_ordered(out_los, out_his))


def difference_sweep(a: IntervalColumns,
                     b: IntervalColumns) -> IntervalColumns:
    """Pointwise difference: subtract the overlapping ``b`` cuts from each
    ``a`` interval in one forward pass per probe."""
    alos, ahis = _sorted_lanes(a)
    blos, bhis = _sorted_lanes(b)
    na, nb = len(alos), len(blos)
    out_los: list[int] = []
    out_his: list[int] = []
    append_lo = out_los.append
    append_hi = out_his.append
    s = 0
    sorted_out = True
    last_lo = None
    for k in range(na):
        lo = alos[k]
        hi = ahis[k]
        while s < nb and bhis[s] < lo:
            s += 1
        cur = lo
        j = s
        alive = True
        while j < nb and blos[j] <= hi:
            clo = blos[j]
            chi = bhis[j]
            if clo > cur:
                piece_hi = _axis_dec(clo)
                if piece_hi >= cur:
                    append_lo(cur)
                    append_hi(piece_hi)
                    if last_lo is not None and cur < last_lo:
                        sorted_out = False
                    last_lo = cur
            nxt = _axis_inc(chi)
            if nxt > cur:
                cur = nxt
            if cur > hi:
                alive = False
                break
            j += 1
        if alive and cur <= hi:
            append_lo(cur)
            append_hi(hi)
            if last_lo is not None and cur < last_lo:
                sorted_out = False
            last_lo = cur
    return _merged_result(out_los, out_his,
                          sorted_out and _ties_ordered(out_los, out_his))


# ---------------------------------------------------------------------------
# Extended-Allen lane table (grouped foreach)
# ---------------------------------------------------------------------------

#: Per-listop integer predicates — (mlo, mhi, rlo, rhi) -> bool — for
#: candidate ranges that still need per-member verification.
INT_PREDICATES = {
    "during": lambda mlo, mhi, rlo, rhi: mlo >= rlo and rhi >= mhi,
    "overlaps": lambda mlo, mhi, rlo, rhi: mlo <= rhi and rlo <= mhi,
    "intersects": lambda mlo, mhi, rlo, rhi: mlo <= rhi and rlo <= mhi,
    "contains": lambda mlo, mhi, rlo, rhi: rlo >= mlo and mhi >= rhi,
    "meets": lambda mlo, mhi, rlo, rhi: mhi == rlo,
    "<": lambda mlo, mhi, rlo, rhi: mhi <= rlo,
    "<=": lambda mlo, mhi, rlo, rhi: mlo <= rlo and rhi >= mhi,
    "starts": lambda mlo, mhi, rlo, rhi: mlo == rlo and mhi <= rhi,
    "finishes": lambda mlo, mhi, rlo, rhi: mhi == rhi and mlo >= rlo,
    "equals": lambda mlo, mhi, rlo, rhi: mlo == rlo and mhi == rhi,
}

#: Listops whose strict clip leaves a matching member unchanged (the
#: member is already contained in the reference).
CLIP_IDENTITY = frozenset({"during", "starts", "finishes", "equals"})


def group_range(cols: IntervalColumns, op_name: str, rlo: int, rhi: int
                ) -> tuple[int, int, bool]:
    """Candidate index range for ``op_name`` against ``(rlo, rhi)``.

    Returns ``(start, end, exact)``; with ``exact`` True every index in
    ``[start, end)`` satisfies the predicate (the pure-bisect lane case,
    available whenever both lanes are sorted), otherwise the range must
    be filtered with :data:`INT_PREDICATES`.
    """
    los, his = cols.los, cols.his
    n = len(los)
    if not cols.lo_sorted:
        return 0, n, False
    hi_sorted = cols.hi_sorted
    if op_name == "during":
        start = bisect_left(los, rlo)
        if hi_sorted:
            end = bisect_right(his, rhi)
            return start, (end if end > start else start), True
        return start, bisect_right(los, rhi), False
    if op_name in ("overlaps", "intersects"):
        if hi_sorted:
            start = bisect_left(his, rlo)
            end = bisect_right(los, rhi)
            return start, (end if end > start else start), True
        return 0, bisect_right(los, rhi), False
    if op_name == "meets":
        if hi_sorted:
            return bisect_left(his, rlo), bisect_right(his, rlo), True
        return 0, n, False
    if op_name == "<":
        if hi_sorted:
            return 0, bisect_right(his, rlo), True
        return 0, n, False
    if op_name == "<=":
        end = bisect_right(los, rlo)
        if hi_sorted:
            end2 = bisect_right(his, rhi)
            return 0, (end if end < end2 else end2), True
        return 0, end, False
    if op_name == "contains":
        end = bisect_right(los, rlo)
        if hi_sorted:
            start = bisect_left(his, rhi)
            return start, (end if end > start else start), True
        return 0, end, False
    if op_name == "starts":
        start = bisect_left(los, rlo)
        end = bisect_right(los, rlo)
        if hi_sorted:
            end2 = bisect_right(his, rhi)
            if end2 < end:
                end = end2
            return start, (end if end > start else start), True
        return start, end, False
    if op_name in ("finishes", "equals"):
        if hi_sorted:
            start = bisect_left(his, rhi)
            end = bisect_right(his, rhi)
            start2 = bisect_left(los, rlo) if op_name == "finishes" else \
                bisect_left(los, rlo)
            if op_name == "equals":
                end2 = bisect_right(los, rlo)
                if end2 < end:
                    end = end2
            if start2 > start:
                start = start2
            return start, (end if end > start else start), True
        return 0, n, False
    return 0, n, False


def sweep_one(cols: IntervalColumns, op_name: str, rlo: int, rhi: int,
              clip: bool) -> IntervalColumns:
    """One foreach group: members of ``cols`` relating to ``(rlo, rhi)``.

    An exact lane range is a zero-copy slice unless a strict clip must
    patch it, which runs like one group of :func:`foreach_groups`;
    otherwise integer filter/clip loops run over the range.
    """
    start, end, exact = group_range(cols, op_name, rlo, rhi)
    los, his = cols.los, cols.his
    if exact:
        if end <= start or not clip or op_name in CLIP_IDENTITY:
            return cols.slice(start, end if end > start else start)
        return _assemble_ranges(cols, (rlo,), (rhi,), op_name, clip,
                                [0], [start], [end])[0]
    predicate = INT_PREDICATES[op_name]
    if not clip:
        positions = [i for i in range(start, end)
                     if predicate(los[i], his[i], rlo, rhi)]
        return cols.take(positions)
    out_los: list[int] = []
    out_his: list[int] = []
    for i in range(start, end):
        mlo = los[i]
        mhi = his[i]
        if not predicate(mlo, mhi, rlo, rhi):
            continue
        plo = mlo if mlo > rlo else rlo
        phi = mhi if mhi < rhi else rhi
        if plo > phi:
            continue
        out_los.append(plo)
        out_his.append(phi)
    return IntervalColumns(array("q", out_los), array("q", out_his))


def foreach_groups(mem: IntervalColumns, refs: IntervalColumns,
                   op_name: str, clip: bool
                   ) -> tuple[IntervalColumns, array, array, list[int]]:
    """A grouped foreach as lanes: ``(members, starts, ends, ref_index)``.

    Group ``g`` is ``members[starts[g]:ends[g]]`` and relates to
    reference ``ref_index[g]``; empty groups are dropped.  With sorted
    member lanes every group is an exact lane range (:func:`group_bounds`)
    and assembly is integer work (:func:`_assemble_ranges`); otherwise
    each reference runs :func:`sweep_one` and the parts are concatenated.
    """
    bounds = group_bounds(mem, refs, op_name)
    if bounds is None:
        rlos, rhis = refs.los, refs.his
        return concat_groups([sweep_one(mem, op_name, rlos[i], rhis[i], clip)
                              for i in range(len(rlos))])
    return _assemble_ranges(mem, refs.los, refs.his, op_name, clip, *bounds)


def group_bounds(mem: IntervalColumns, refs: IntervalColumns, op_name: str
                 ) -> "tuple[list[int], list[int], list[int]] | None":
    """Integer bounds ``(ref_index, starts, ends)`` of the non-empty groups.

    ``None`` unless both member lanes are sorted (only then is every
    :func:`group_range` exact).  For ``during``/``overlaps`` against a
    sorted reference tiling this is the gapless lane sweep: both group
    boundaries advance monotonically, each by one bisect that starts at
    its previous position, so no member is ever revisited; other shapes
    bisect per reference.
    """
    if not mem.hi_sorted:
        return None
    rlos, rhis = refs.los, refs.his
    nrefs = len(rlos)
    index: list[int] = []
    starts: list[int] = []
    ends: list[int] = []
    if op_name in ("during", "overlaps") and refs.hi_sorted:
        # during: members with lo >= rlo and hi <= rhi;
        # overlaps: members with hi >= rlo and lo <= rhi.
        if op_name == "during":
            start_lane, end_lane = mem.los, mem.his
        else:
            start_lane, end_lane = mem.his, mem.los
        s = e = 0
        for i in range(nrefs):
            s = bisect_left(start_lane, rlos[i], s)
            e = bisect_right(end_lane, rhis[i], e if e > s else s)
            if e > s:
                index.append(i)
                starts.append(s)
                ends.append(e)
        return index, starts, ends
    for i in range(nrefs):
        s, e, exact = group_range(mem, op_name, rlos[i], rhis[i])
        if not exact:
            return None
        if e > s:
            index.append(i)
            starts.append(s)
            ends.append(e)
    return index, starts, ends


def _assemble_ranges(mem: IntervalColumns, rlos: Sequence[int],
                     rhis: Sequence[int], op_name: str, clip: bool,
                     index: list[int], starts: list[int], ends: list[int]
                     ) -> tuple[IntervalColumns, array, array, list[int]]:
    """Members and bounds of exact, non-empty lane-range groups; group
    ``g`` relates to reference ``(rlos[index[g]], rhis[index[g]])``.

    Unclipped groups keep ``mem`` itself as their members, however they
    abut, overlap or skip members (the prefixes ``DAYS:<:WEEKS`` groups
    form cost two integers each, not a copy).  A strict clip under an
    operator outside :data:`CLIP_IDENTITY` copies the ranges and then
    patches the two boundary members of each group when the members are
    disjoint (interior members already lie inside the reference), or
    clips member by member otherwise, dropping empty pieces and groups.
    """
    if not clip or op_name in CLIP_IDENTITY:
        return mem, array("q", starts), array("q", ends), index
    if op_name in ("overlaps", "intersects") and mem.disjoint:
        members, offsets = gather_ranges(mem, starts, ends, copy=True)
        out_los, out_his = members.los, members.his
        for g in range(len(starts)):
            r = index[g]
            rlo = rlos[r]
            rhi = rhis[r]
            first = offsets[g]
            last = offsets[g + 1] - 1
            if out_los[first] < rlo:
                out_los[first] = rlo
            if out_his[last] > rhi:
                out_his[last] = rhi
        return members, offsets[:-1], offsets[1:], index
    los, his = mem.los, mem.his
    out_los: list[int] = []
    out_his: list[int] = []
    offsets = array("q", (0,))
    kept: list[int] = []
    for g in range(len(starts)):
        r = index[g]
        rlo = rlos[r]
        rhi = rhis[r]
        for i in range(starts[g], ends[g]):
            mlo = los[i]
            mhi = his[i]
            plo = mlo if mlo > rlo else rlo
            phi = mhi if mhi < rhi else rhi
            if plo > phi:
                # e.g. "<=" relates intervals that need not overlap; the
                # strict clip then drops the member (the paper's epsilon
                # exclusion).
                continue
            out_los.append(plo)
            out_his.append(phi)
        if len(out_los) > offsets[-1]:
            offsets.append(len(out_los))
            kept.append(r)
    return (IntervalColumns(array("q", out_los), array("q", out_his)),
            offsets[:-1], offsets[1:], kept)


def gather_ranges(cols: IntervalColumns, starts: Sequence[int],
                  ends: Sequence[int], copy: bool = False
                  ) -> tuple[IntervalColumns, array]:
    """The ``[starts[k], ends[k])`` lane ranges of ``cols``, in order, as
    one column pair plus the range offsets into it.

    Ranges that tile one run of ``cols`` come back as a zero-copy slice
    unless ``copy`` asks for writable lanes.  Otherwise they are copied
    into fresh lanes, which inherit the True lane flags of ``cols`` when
    the ranges are ascending and non-overlapping (a subsequence).
    """
    offsets = array("q", (0,))
    if not len(starts):
        return IntervalColumns.empty(), offsets
    tiles = ordered = True
    for k in range(len(starts) - 1):
        if ends[k] != starts[k + 1]:
            tiles = False
            if ends[k] > starts[k + 1]:
                ordered = False
                break
    if tiles and not copy:
        s0 = starts[0]
        offsets = array("q", [s - s0 for s in starts])
        offsets.append(ends[-1] - s0)
        return cols.slice(s0, ends[-1]), offsets
    blos = memoryview(cols.los).cast("B")
    bhis = memoryview(cols.his).cast("B")
    los = array("q")
    his = array("q")
    size = los.itemsize
    total = 0
    for s, e in zip(starts, ends):
        los.frombytes(blos[s * size:e * size])
        his.frombytes(bhis[s * size:e * size])
        total += e - s
        offsets.append(total)
    if not ordered:
        return IntervalColumns(los, his), offsets
    return IntervalColumns(
        los, his, lo_sorted=True if cols._lo_sorted else None,
        hi_sorted=True if cols._hi_sorted else None,
        disjoint=True if cols._disjoint else None), offsets


def concat_groups(parts: "Sequence[IntervalColumns]"
                  ) -> tuple[IntervalColumns, array, array, list[int]]:
    """Per-reference groups as lanes: the non-empty ``parts`` concatenated,
    their bounds in it, and the positions of the parts kept."""
    kept = [i for i, part in enumerate(parts) if len(part)]
    offsets = array("q", (0,))
    total = 0
    for i in kept:
        total += len(parts[i])
        offsets.append(total)
    return (concat_columns([parts[i] for i in kept]), offsets[:-1],
            offsets[1:], kept)


# ---------------------------------------------------------------------------
# Batch join kernel (the DB executor's vectorized pipeline)
# ---------------------------------------------------------------------------

def interval_join_pairs(alos: Sequence[int], ahis: Sequence[int],
                        blos: Sequence[int], bhis: Sequence[int],
                        predicate: "str" = "overlaps"
                        ) -> list[tuple[int, int]]:
    """Endpoint-sweep interval join: ``(i, j)`` pairs with ``a[i]``
    relating to ``b[j]``.

    Both inputs must be lo-sorted (callers argsort and map positions
    back).  This is the forward-scan sweep of Piatov et al.: two
    cursors walk the lo lanes in merge order and each side scans the
    other's still-open intervals, so the cost is O(n log n) for the
    caller's sorts plus one interpreter step per *output* pair — never
    the nested-loop n*m.  ``predicate`` narrows the emitted pairs:

    * ``"overlaps"`` — ``a.lo <= b.hi and b.lo <= a.hi`` (every scanned
      pair qualifies; no residual test);
    * ``"during"`` — ``a`` inside ``b`` (``a.lo >= b.lo and
      a.hi <= b.hi``), filtered out of the overlap candidates.

    Every interval must be *regular* (``lo <= hi``): the scan bounds
    assume it, so inverted or NaN-endpoint rows would be emitted or
    missed inconsistently.  The executor routes such rows through the
    scalar predicate instead of the sweep.
    """
    na, nb = len(alos), len(blos)
    pairs: list[tuple[int, int]] = []
    append = pairs.append
    during = predicate == "during"
    if predicate not in ("overlaps", "during"):
        raise ValueError(f"unknown join predicate {predicate!r}")
    i = j = 0
    while i < na and j < nb:
        if alos[i] <= blos[j]:
            ahi = ahis[i]
            alo = alos[i]
            k = j
            while k < nb and blos[k] <= ahi:
                if not during or (alo >= blos[k] and ahi <= bhis[k]):
                    append((i, k))
                k += 1
            i += 1
        else:
            bhi = bhis[j]
            blo = blos[j]
            k = i
            while k < na and alos[k] <= bhi:
                if not during or (alos[k] >= blo and ahis[k] <= bhi):
                    append((k, j))
                k += 1
            j += 1
    return pairs


# ---------------------------------------------------------------------------
# Misc column kernels
# ---------------------------------------------------------------------------

def clip_cover(cols: IntervalColumns, lo: int, hi: int) -> IntervalColumns:
    """Intersect the two boundary elements with ``[lo, hi]`` (cover → clip
    materialisation); zero-copy when no boundary pokes outside."""
    n = len(cols)
    if n == 0:
        return cols
    patch_lo = cols.los[0] < lo
    patch_hi = cols.his[-1] > hi
    if not patch_lo and not patch_hi:
        return cols
    out = cols.copy_slice(0, n)
    if patch_lo:
        out.los[0] = lo
    if patch_hi:
        out.his[-1] = hi
    return out


def shift_columns(cols: IntervalColumns, delta: int) -> IntervalColumns:
    """Translate every interval by ``delta`` zero-skipping ticks; raises
    :class:`InvalidIntervalError` when a shifted endpoint leaves int64."""
    out_los: list[int] = []
    out_his: list[int] = []
    for lane, out in ((cols.los, out_los), (cols.his, out_his)):
        for t in lane:
            r = t + delta
            if t > 0 and r <= 0:
                r -= 1
            elif t < 0 and r >= 0:
                r += 1
            out.append(r)
    return IntervalColumns.from_lists(out_los, out_his)
