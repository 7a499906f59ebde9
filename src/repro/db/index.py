"""Secondary indexes: ordered column indexes and calendar probes.

The paper lists "creation of indexes to optimize the performance of these
operators" among the extensible-DBMS features it uses.  Two index kinds
are provided:

* :class:`OrderedIndex` — a sorted, blocked (value, tid) list over one
  column, answering equality, range and calendar-run probes in
  O(log n); maintained incrementally by
  :class:`~repro.db.storage.Relation`.
* :class:`CalendarProbe` — membership of one calendar reference, the
  single source every ``within`` / ``on`` / ``member()`` site reads: a
  compiled periodic set inside its safe range, the calendar's merged
  endpoint lanes outside it.
"""

from __future__ import annotations

import bisect
from collections import Counter
from itertools import accumulate, chain, compress
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from repro.db.errors import ExecutionError

__all__ = ["OrderedIndex", "CalendarProbe"]


class OrderedIndex:
    """A sorted index over one column of a relation.

    Entries are kept in ``(key, tid)`` order on every path — equal keys
    list their tids ascending, the order a scan visits the rows in — so
    an equality probe returns tids in scan order.

    The key and tid lanes are stored in blocks of up to ``2 * BLOCK``
    entries, with each block's last key kept beside them (the layout of
    a blocked sorted list): inserting or removing one entry shifts one
    block, where a flat lane shifts half the index — on a 50k-row
    relation a few KB instead of ~400 KB of pointers per index on every
    append.  Probes bisect the block ends, then one block.

    Over integer keys (``abstime`` ticks) the index also counts its
    entries per key value, from the smallest key up, once a calendar
    count first asks for them: an entry added or dropped inside that
    range moves one count, anything else drops the counts until the
    next ask.  :meth:`count_runs` reads their running sums, two list
    reads per run.
    """

    #: Entries per block when the lanes are laid out afresh; a block
    #: splits in two once it outgrows twice this.
    BLOCK = 1024

    def __init__(self, column: str) -> None:
        self.column = column
        self._set_lanes([], [])

    def _set_lanes(self, keys: list, tids: list) -> None:
        """Lay out flat ``(key, tid)``-ordered lanes as blocks."""
        size = self.BLOCK
        self._kb = [keys[i:i + size] for i in range(0, len(keys), size)]
        self._tb = [tids[i:i + size] for i in range(0, len(tids), size)]
        self._last = [block[-1] for block in self._kb]
        self._len = len(keys)
        #: Entries per key value from ``_tick_base`` up (None: not kept)
        #: and their running sums, stale once an entry has moved since.
        #: A write only marks them stale: freeing a sum per key value
        #: is left to the next count, which sums afresh.
        self._tick_counts: "list[int] | None" = None
        self._tick_base = 0
        self._tick_sums: "list[int] | None" = None
        self._tick_stale = True

    def _block_of(self, value, tid: int) -> int:
        """The block holding — or due to hold — entry ``(value, tid)``:
        the first whose last entry is not below it (else the last)."""
        last, tb = self._last, self._tb
        b = bisect.bisect_left(last, value)
        # Equal keys may run over several blocks: step over the blocks
        # that end with an equal key and a smaller tid.
        while b < len(last) and last[b] == value and tb[b][-1] < tid:
            b += 1
        return min(b, len(last) - 1)

    def insert(self, row: dict) -> None:
        """Index one tuple (None values are not indexed)."""
        value = row.get(self.column)
        if value is not None:
            self._place(value, row["_tid"])

    def _place(self, value, tid: int) -> None:
        """Insert the entry ``(value, tid)`` at its ``(key, tid)`` slot."""
        if not self._len:
            self._set_lanes([value], [tid])
            return
        b = self._block_of(value, tid)
        keys, tids = self._kb[b], self._tb[b]
        pos = bisect.bisect_right(keys, value)
        if pos and keys[pos - 1] == value and tids[pos - 1] > tid:
            # An older tid among equal keys (an update): bisect the tids.
            lo = bisect.bisect_left(keys, value, 0, pos)
            pos = bisect.bisect_left(tids, tid, lo, pos)
        keys.insert(pos, value)
        tids.insert(pos, tid)
        self._len += 1
        self._count_key(value, 1)
        if pos == len(keys) - 1:
            self._last[b] = value
        if len(keys) > 2 * self.BLOCK:
            half = self.BLOCK
            self._kb[b:b + 1] = [keys[:half], keys[half:]]
            self._tb[b:b + 1] = [tids[:half], tids[half:]]
            self._last[b:b + 1] = [keys[half - 1], keys[-1]]

    def remove(self, row: dict) -> None:
        """Drop one tuple's entry (matched by value and tid)."""
        value = row.get(self.column)
        if value is None or not self._len:
            return
        tid = row["_tid"]
        b = self._block_of(value, tid)
        keys, tids = self._kb[b], self._tb[b]
        lo = bisect.bisect_left(keys, value)
        hi = bisect.bisect_right(keys, value, lo)
        pos = bisect.bisect_left(tids, tid, lo, hi)
        if pos == hi or tids[pos] != tid:
            return
        del keys[pos]
        del tids[pos]
        self._len -= 1
        self._count_key(value, -1)
        if not keys:
            del self._kb[b], self._tb[b], self._last[b]
        elif pos == len(keys):
            self._last[b] = keys[-1]

    def _count_key(self, value, delta: int) -> None:
        """Move the per-key count of one entry added (``delta`` 1) or
        dropped (-1); a key outside the counted range drops the counts."""
        counts = self._tick_counts
        if counts is None:
            return
        self._tick_stale = True
        i = value - self._tick_base if type(value) is int else -1
        if 0 <= i < len(counts):
            counts[i] += delta
        else:
            self._tick_counts = None

    def _sorted_lanes(self, rows: "Iterable[dict]") -> tuple[list, list]:
        """``(keys, tids)`` of the non-None rows, sorted by key.

        One stable sort of positions by key: over rows in tid order
        that is ``(key, tid)`` order, without building a tuple per row.
        """
        column = self.column
        keys: list = []
        tids: list[int] = []
        for row in rows:
            value = row.get(column)
            if value is not None:
                keys.append(value)
                tids.append(row["_tid"])
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return [keys[i] for i in order], [tids[i] for i in order]

    def rebuild(self, rows: Iterable[dict]) -> None:
        """Rebuild from scratch over tuples given in tid order (a
        relation's scan order) — one O(n log n) sort instead of n
        single-entry inserts; the bulk-load path of ``create_index``.
        """
        self._set_lanes(*self._sorted_lanes(rows))

    def insert_batch(self, rows: "Sequence[dict]") -> None:
        """Index a batch of new tuples (tid order, every tid above the
        indexed ones): sort the batch once, then one linear merge.

        ``Relation.insert_many`` routes through this instead of per-row
        :meth:`insert`.  Small batches still use incremental inserts —
        the merge only pays off once the batch rivals the index.
        """
        keys, tids = self._sorted_lanes(rows)
        if not keys:
            return
        if len(keys) * 8 < self._len:
            for key, tid in zip(keys, tids):
                self._place(key, tid)
            return
        self._set_lanes(*_merge(*self.items(), keys, tids))

    def replace_batch(self, old_rows: "Sequence[dict]",
                      new_rows: "Sequence[dict]") -> None:
        """Swap each tuple's ``old_rows`` entry for its ``new_rows`` one.

        The batch form of ``remove(old)`` + ``insert(new)`` per tuple,
        for ``Relation.update_many``: ``old_rows`` are the indexed
        versions (one per tid) and ``new_rows`` their replacements.
        Small batches take the per-row path; a batch that rivals the
        index drops its tids in one filtering pass and merges the
        replacements in (O(n + batch log batch)).  Both land every
        replacement at its ``(key, tid)`` place.
        """
        column = self.column
        if len(new_rows) * 8 < self._len:
            for row in old_rows:
                self.remove(row)
            for row in new_rows:
                self.insert(row)
            return
        gone = {row["_tid"] for row in old_rows
                if row.get(column) is not None}
        keys, tids = self.items()
        keep = [tid not in gone for tid in tids]
        # Replacements come in write order: put them in tid order
        # first, so the stable key sort leaves them in (key, tid) order.
        self._set_lanes(*_merge(
            list(compress(keys, keep)), list(compress(tids, keep)),
            *self._sorted_lanes(sorted(new_rows, key=itemgetter("_tid")))))

    def _bound(self, value, right: bool) -> tuple[int, int]:
        """``(block, offset)`` of the first entry whose key is at least
        ``value`` (above it when ``right``)."""
        find = bisect.bisect_right if right else bisect.bisect_left
        b = find(self._last, value)
        if b == len(self._last):
            return b, 0
        return b, find(self._kb[b], value)

    def _between(self, start: tuple, end: tuple) -> list[int]:
        """tids from position ``start`` up to, not including, ``end``."""
        if start >= end:
            return []
        (b1, o1), (b2, o2) = start, end
        if b1 == b2:
            return self._tb[b1][o1:o2]
        out = self._tb[b1][o1:]
        for b in range(b1 + 1, b2):
            out += self._tb[b]
        if o2:
            out += self._tb[b2][:o2]
        return out

    def lookup_eq(self, value) -> list[int]:
        """tids of tuples whose column equals ``value`` (ascending)."""
        return self._between(self._bound(value, False),
                             self._bound(value, True))

    def lookup_range(self, lo=None, hi=None,
                     lo_inclusive: bool = True,
                     hi_inclusive: bool = True) -> list[int]:
        """tids of tuples within the (half-)open value range."""
        start = (0, 0) if lo is None else self._bound(lo, not lo_inclusive)
        end = (len(self._last), 0) if hi is None else \
            self._bound(hi, hi_inclusive)
        return self._between(start, end)

    def lookup_runs(self, runs: "Iterable[tuple]") -> list[int]:
        """tids of tuples whose key lies in any inclusive ``(lo, hi)``
        run of ascending, disjoint ``runs`` — a bisect pair per run.

        The tids come out grouped by run in key order, not sorted.
        """
        last, kb, tb = self._last, self._kb, self._tb
        out: list[int] = []
        b = 0
        for lo, hi in runs:
            b = bisect.bisect_left(last, lo, b)
            if b == len(last):
                break
            start = bisect.bisect_left(kb[b], lo)
            if last[b] > hi:  # the run ends inside this block
                out += tb[b][start:bisect.bisect_right(kb[b], hi, start)]
                continue
            out += tb[b][start:]
            end = bisect.bisect_right(last, hi, b + 1)
            for full in range(b + 1, end):
                out += tb[full]
            b = end
            if b < len(last):
                out += tb[b][:bisect.bisect_right(kb[b], hi)]
        return out

    def count_runs(self, runs: "Sequence[tuple]") -> "int | None":
        """``len(self.lookup_runs(runs))`` for ascending, disjoint
        ``runs`` without building the tid list, read off the running
        per-key counts: entries below each run's first key subtracted
        from those up to its last.

        None when the keys are not integers dense enough to count per
        value (fewer entries than a quarter of their range); the caller
        then reads :meth:`lookup_runs`.
        """
        if self._tick_stale:
            counts = self._tick_counts
            if counts is None:
                counts = self._tick_counts = self._key_counts()
                if counts is None:
                    return None
            self._tick_sums = list(accumulate(counts, initial=0))
            self._tick_stale = False
        sums = self._tick_sums
        base = self._tick_base
        top = base + len(sums) - 2  # the largest key counted
        if runs and (runs[0][0] < base or runs[-1][1] > top):
            runs = [(max(lo, base), min(hi, top)) for lo, hi in runs
                    if hi >= base and lo <= top]
        at = sums.__getitem__
        return (sum(map(at, [hi + 1 - base for _, hi in runs]))
                - sum(map(at, [lo - base for lo, _ in runs])))

    def _key_counts(self) -> "list[int] | None":
        """Entries per key value from the smallest key up, or None when
        a key is not an ``int`` or the keys are too sparse."""
        if not self._len:
            return None
        base, top = self._kb[0][0], self._last[-1]
        if type(base) is not int or type(top) is not int or \
                top - base >= 4 * self._len:
            return None
        keys = list(chain.from_iterable(self._kb))
        if set(map(type, keys)) != {int}:
            return None
        self._tick_base = base
        counts = [0] * (top - base + 1)
        for key, n in Counter(keys).items():
            counts[key - base] = n
        return counts

    def key_range(self) -> "tuple | None":
        """``(smallest, largest)`` indexed key, or None when empty."""
        return (self._kb[0][0], self._last[-1]) if self._len else None

    def items(self) -> tuple[list, list[int]]:
        """The sorted ``(keys, tids)`` lanes as flat lists."""
        return (list(chain.from_iterable(self._kb)),
                list(chain.from_iterable(self._tb)))

    def __len__(self) -> int:
        return self._len


def _merge(old_keys: list, old_tids: list, new_keys: list,
           new_tids: list) -> tuple[list, list]:
    """Merge two ``(key, tid)``-sorted lane pairs in one linear pass
    (tids are compared only on equal keys)."""
    if not old_keys:
        return new_keys, new_tids
    keys: list = []
    tids: list[int] = []
    i = j = 0
    n, m = len(old_keys), len(new_keys)
    while i < n and j < m:
        ok, nk = old_keys[i], new_keys[j]
        if ok < nk or (ok == nk and old_tids[i] < new_tids[j]):
            keys.append(ok)
            tids.append(old_tids[i])
            i += 1
        else:
            keys.append(nk)
            tids.append(new_tids[j])
            j += 1
    keys.extend(old_keys[i:])
    tids.extend(old_tids[i:])
    keys.extend(new_keys[j:])
    tids.extend(new_tids[j:])
    return keys, tids


class CalendarProbe:
    """Membership of one calendar: point probes and member runs.

    ``resolve`` produces the calendar on first need; ``compile``, if
    given, produces ``(pset, safe_lo, safe_hi)`` or None on first need —
    a compiled periodic set and the tick range inside which it provably
    agrees with the resolved calendar.  Inside that range the set
    answers, so a cold read pays only the compile; outside it the
    calendar's flattened endpoint lanes answer, sorted by ``lo`` and
    merged once when they are not already nondecreasing at both ends.
    Tick 0 is never a member.
    """

    __slots__ = ("_resolve", "_compile", "_calendar", "_periodic", "_lanes")

    def __init__(self, resolve: Callable,
                 compile: "Callable | None" = None) -> None:
        self._resolve = resolve
        self._compile = compile
        self._calendar = None
        self._periodic = None
        self._lanes = None

    @property
    def calendar(self):
        """The resolved calendar (resolved on first access)."""
        if self._calendar is None:
            self._calendar = self._resolve()
        return self._calendar

    @property
    def periodic(self):
        """``(pset, safe_lo, safe_hi)``, or None when there is no
        compiled form (compiled on first access)."""
        if self._compile is not None:
            self._periodic = self._compile()
            self._compile = None
        return self._periodic

    def _endpoint_lanes(self) -> tuple[Sequence[int], Sequence[int]]:
        """``(los, his)``, both nondecreasing, covering the calendar."""
        if self._lanes is None:
            cols = self.calendar.flatten().columns
            los, his = cols.los, cols.his
            if not cols.hi_sorted:  # sort by lo, merge overlaps
                merged_los: list[int] = []
                merged_his: list[int] = []
                for i in sorted(range(len(los)), key=los.__getitem__):
                    lo, hi = los[i], his[i]
                    if merged_his and lo <= merged_his[-1]:
                        merged_his[-1] = max(merged_his[-1], hi)
                    else:
                        merged_los.append(lo)
                        merged_his.append(hi)
                los, his = merged_los, merged_his
            self._lanes = (los, his)
        return self._lanes

    def contains(self, t) -> bool:
        """Whether tick ``t`` is a member; a value that is not an
        ``abstime`` tick (a bool, NULL, text) raises."""
        if not isinstance(t, int) or isinstance(t, bool):
            raise ExecutionError("within expects an abstime tick on the left")
        if t == 0:
            return False
        periodic = self.periodic
        if periodic is not None and periodic[1] <= t <= periodic[2]:
            return periodic[0].contains(t)
        los, his = self._endpoint_lanes()
        i = bisect.bisect_left(his, t)
        return i < len(los) and los[i] <= t

    def members(self, ticks: Iterable) -> list[bool]:
        """:meth:`contains` of each tick, each distinct tick probed once."""
        contains = self.contains
        seen: dict = {}
        out: list[bool] = []
        for t in ticks:
            if type(t) is int:
                hit = seen.get(t)
                if hit is None:
                    hit = seen[t] = contains(t)
            else:
                hit = contains(t)
            out.append(hit)
        return out

    def runs(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """The members inside ``[lo, hi]`` as ascending, disjoint,
        inclusive runs (tick 0 excluded)."""
        periodic = self.periodic
        if periodic is not None:
            pset, safe_lo, safe_hi = periodic
            a, b = max(lo, safe_lo), min(hi, safe_hi)
            if a <= b:
                left = self._lane_runs(lo, a - 1) if lo < a else []
                right = self._lane_runs(b + 1, hi) if b < hi else []
                return left + pset.runs_between(a, b) + right
        return self._lane_runs(lo, hi)

    def _lane_runs(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """The endpoint lanes' coverage inside ``[lo, hi]``; overlapping
        and adjacent intervals merge, so a run of single-day intervals
        costs one run."""
        los, his = self._endpoint_lanes()
        merged: list[list[int]] = []
        for i in range(bisect.bisect_left(his, lo), len(los)):
            a = los[i]
            if a > hi:
                break
            b = his[i]
            if merged and a <= merged[-1][1] + 1:
                if b > merged[-1][1]:
                    merged[-1][1] = b
            else:
                merged.append([a, b])
        if merged:
            merged[0][0] = max(merged[0][0], lo)
            merged[-1][1] = min(merged[-1][1], hi)
        out: list[tuple[int, int]] = []
        for a, b in merged:
            if a <= 0 <= b:
                if a < 0:
                    out.append((a, -1))
                if b > 0:
                    out.append((1, b))
            else:
                out.append((a, b))
        return out
