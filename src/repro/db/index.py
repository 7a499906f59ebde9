"""Secondary indexes: ordered column indexes and interval indexes.

The paper lists "creation of indexes to optimize the performance of these
operators" among the extensible-DBMS features it uses.  Two index kinds
are provided:

* :class:`OrderedIndex` — a sorted (value, tid) list over one column,
  answering equality and range probes in O(log n); maintained
  incrementally by :class:`~repro.db.storage.Relation`.
* :class:`IntervalIndex` — a static sorted-interval index over an order-1
  calendar answering point-membership and next-point queries; used by the
  ``within`` operator and by DBCRON.
"""

from __future__ import annotations

import bisect
from itertools import compress
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro.core.calendar import Calendar
from repro.core.interval import Interval
from repro.db.errors import SchemaError

__all__ = ["OrderedIndex", "IntervalIndex"]


class OrderedIndex:
    """A sorted index over one column of a relation."""

    def __init__(self, column: str) -> None:
        self.column = column
        self._keys: list = []
        self._tids: list[int] = []

    def insert(self, row: dict) -> None:
        """Index one tuple (None values are not indexed)."""
        value = row.get(self.column)
        if value is None:
            return
        pos = bisect.bisect_right(self._keys, value)
        self._keys.insert(pos, value)
        self._tids.insert(pos, row["_tid"])

    def remove(self, row: dict) -> None:
        """Drop one tuple's entry (matched by value and tid)."""
        value = row.get(self.column)
        if value is None:
            return
        pos = bisect.bisect_left(self._keys, value)
        while pos < len(self._keys) and self._keys[pos] == value:
            if self._tids[pos] == row["_tid"]:
                del self._keys[pos]
                del self._tids[pos]
                return
            pos += 1

    def rebuild(self, rows: Iterable[dict]) -> None:
        """Rebuild from scratch over the given tuples (sort once).

        This is the bulk-load path ``create_index`` takes over an
        existing relation: one O(n log n) sort instead of n O(n)
        ``list.insert`` shuffles.
        """
        pairs = sorted((row[self.column], row["_tid"]) for row in rows
                       if row.get(self.column) is not None)
        self._keys = [p[0] for p in pairs]
        self._tids = [p[1] for p in pairs]

    def insert_batch(self, rows: "Sequence[dict]") -> None:
        """Index a batch of tuples: sort the batch once, then one linear
        merge with the existing keys.

        ``Relation.insert_many`` routes through this instead of per-row
        :meth:`insert`, turning O(batch * n) memmove maintenance into
        O(batch log batch + n).  Small batches still use incremental
        inserts — the merge only pays off once the batch rivals the
        index.
        """
        pairs = sorted((row[self.column], row["_tid"]) for row in rows
                       if row.get(self.column) is not None)
        if not pairs:
            return
        if len(pairs) * 8 < len(self._keys):
            for key, tid in pairs:
                pos = bisect.bisect_right(self._keys, key)
                self._keys.insert(pos, key)
                self._tids.insert(pos, tid)
            return
        self._merge(pairs)

    def replace_batch(self, old_rows: "Sequence[dict]",
                      new_rows: "Sequence[dict]") -> None:
        """Swap each tuple's ``old_rows`` entry for its ``new_rows`` one.

        The batch form of ``remove(old)`` + ``insert(new)`` per tuple,
        for ``Relation.update_many``: ``old_rows`` are the indexed
        versions (one per tid) and ``new_rows`` their replacements in
        write order.  A replacement lands after the entries with an
        equal key, exactly where one :meth:`insert` per row puts it.
        Small batches take that per-row path; a batch that rivals the
        index drops its tids in one filtering pass and merges the
        replacements in (O(n + batch log batch), where per-row removal
        also walks every equal key — a whole wave of rules shares one
        ``next_fire``).
        """
        if len(new_rows) * 8 < len(self._keys):
            for row in old_rows:
                self.remove(row)
            for row in new_rows:
                self.insert(row)
            return
        gone = {row["_tid"] for row in old_rows
                if row.get(self.column) is not None}
        keep = [tid not in gone for tid in self._tids]
        self._keys = list(compress(self._keys, keep))
        self._tids = list(compress(self._tids, keep))
        # Sort on the key alone: the stable sort keeps equal keys in
        # write order, where per-row inserts would put them.
        self._merge(sorted(((row[self.column], row["_tid"])
                            for row in new_rows
                            if row.get(self.column) is not None),
                           key=itemgetter(0)))

    def _merge(self, pairs: list) -> None:
        """Merge key-sorted ``(key, tid)`` pairs into the lanes in one
        linear pass, each after the existing entries with an equal key."""
        old_keys, old_tids = self._keys, self._tids
        keys: list = []
        tids: list[int] = []
        i = j = 0
        n, m = len(old_keys), len(pairs)
        while i < n and j < m:
            if old_keys[i] <= pairs[j][0]:
                keys.append(old_keys[i])
                tids.append(old_tids[i])
                i += 1
            else:
                keys.append(pairs[j][0])
                tids.append(pairs[j][1])
                j += 1
        keys.extend(old_keys[i:])
        tids.extend(old_tids[i:])
        for j in range(j, m):
            keys.append(pairs[j][0])
            tids.append(pairs[j][1])
        self._keys = keys
        self._tids = tids

    def lookup_eq(self, value) -> list[int]:
        """tids of tuples whose column equals ``value``."""
        lo = bisect.bisect_left(self._keys, value)
        hi = bisect.bisect_right(self._keys, value)
        return self._tids[lo:hi]

    def lookup_range(self, lo=None, hi=None,
                     lo_inclusive: bool = True,
                     hi_inclusive: bool = True) -> list[int]:
        """tids of tuples within the (half-)open value range."""
        start = 0
        end = len(self._keys)
        if lo is not None:
            start = (bisect.bisect_left(self._keys, lo) if lo_inclusive
                     else bisect.bisect_right(self._keys, lo))
        if hi is not None:
            end = (bisect.bisect_right(self._keys, hi) if hi_inclusive
                   else bisect.bisect_left(self._keys, hi))
        return self._tids[start:end]

    def items(self) -> tuple[list, list[int]]:
        """The sorted ``(keys, tids)`` lanes (read-only views for the
        executor's sort-merge join — do not mutate)."""
        return self._keys, self._tids

    def __len__(self) -> int:
        return len(self._keys)


class IntervalIndex:
    """A static point-membership index over an order-1 calendar.

    Intervals are flattened, sorted and (overlap-)merged at construction;
    probes are O(log n).
    """

    def __init__(self, calendar: Calendar) -> None:
        intervals = sorted(calendar.iter_intervals(),
                           key=lambda iv: (iv.lo, iv.hi))
        merged: list[Interval] = []
        for iv in intervals:
            if merged and merged[-1].overlaps(iv):
                merged[-1] = merged[-1].union_hull(iv)
            else:
                merged.append(iv)
        self._los = [iv.lo for iv in merged]
        self._his = [iv.hi for iv in merged]

    def __len__(self) -> int:
        return len(self._los)

    def contains(self, t: int) -> bool:
        """True when axis point ``t`` is covered by the calendar."""
        if t == 0:
            return False
        pos = bisect.bisect_right(self._los, t) - 1
        return pos >= 0 and self._his[pos] >= t

    def contains_batch(self, values: Sequence[int]) -> list[bool]:
        """Membership of an *ascending* batch of points — one merge pass.

        Equivalent to ``[self.contains(v) for v in values]``; the
        executor's batched calendar probe sorts a valid-time column
        once and sweeps it through the merged interval lanes instead
        of bisecting per tuple.
        """
        from repro.core.columnar import batch_membership
        return batch_membership(self._los, self._his, values)

    def lanes(self) -> tuple[list[int], list[int]]:
        """The merged, sorted ``(los, his)`` endpoint lanes."""
        return self._los, self._his

    def next_at_or_after(self, t: int) -> int | None:
        """Smallest covered point >= ``t``, or None."""
        if t == 0:
            t = 1
        pos = bisect.bisect_right(self._los, t) - 1
        if pos >= 0 and self._his[pos] >= t:
            return t
        pos += 1
        if pos < len(self._los):
            return self._los[pos]
        return None

    def iter_points(self) -> Iterator[int]:
        """All covered axis points in ascending order."""
        for lo, hi in zip(self._los, self._his):
            t = lo
            while t <= hi:
                if t != 0:
                    yield t
                t += 1
