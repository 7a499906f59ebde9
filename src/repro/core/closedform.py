"""Operator-wise closed form of calendar expressions.

The periodic compiler (:mod:`repro.core.periodic`) reads an expression
over a few windows: one period plus flanks for the periodic part, the
finite extent plus margins for the patch.  This module answers those
reads from the operands' bounds with integer work — the operator-wise
mapping of Bettini & Mascetti ("Mapping Calendar Expressions to Minimal
Periodic Sets") — instead of materialising basic calendars and running
the interpreter over them:

* the basic tilings DAYS, WEEKS, MONTHS and YEARS are unit bounds from
  civil arithmetic (``CalendarSystem._unit_lanes``);
* an explicit-values name is its stored intervals, a derived name its
  single-expression script carrying the catalog's granularity, and a
  ``<year>/YEARS`` anchor one year's bounds;
* a selection from ``X:during:T`` with T a tiling probes X's member
  runs once per unit of T: ``[1]/AM_BUS_DAYS:during:MONTHS`` reads
  4 800 month bounds per period instead of evaluating 146 097 days;
  over a finite T (``WEEKS:during:2016/YEARS``) the groups are listed;
* ``+``, ``-`` and ``&`` over order-1 day sets combine coverage runs,
  and ``flatten`` only changes the order.

A value answers, for any window, the coverage runs and the order-1
element list that the interpreter's result over that window would have
(see :class:`~repro.core.periodic.Observation`).  A day set used as an
operand is compiled once into a :class:`~repro.core.periodic.PeriodicSet`
and read from it.  A subexpression is evaluated once per compile, and a
name's value is memoised in the caller's ``memo`` (the registry keys it
on its catalog version), so a derived name such as ``AM_BUS_DAYS`` is
compiled once for every expression that uses it.

Any other shape raises :class:`Unsupported` naming the AST node kind,
and the compiler reads that expression from the interpreter instead.
The two are not equal by construction: the parity property in
``tests/property/test_periodic_props.py`` (every compiled field, both
ways, both budget tiers) is what keeps them from drifting apart.

All coordinates are linear days (``L(t) = t - 1 if t > 0 else t``).
"""

from __future__ import annotations

import copy
from bisect import bisect_right

from repro.core.errors import CalendarError
from repro.core.granularity import Granularity
from repro.core.interval import Interval, get_listop
from repro.core.periodic import (
    _BASIC_FACTS,
    Observation,
    PeriodicSet,
    _clip_runs,
    _hull,
    _lcm0,
    _lin,
    _merge_adjacent,
    _pad,
    _residue_offsets,
    _unlin,
)

__all__ = ["Unsupported", "closed_value"]

#: Listops the closed form evaluates, with their builtin predicates (a
#: re-registered name keeps its surface but not its meaning).
_LISTOPS = {"during": Interval.during, "overlaps": Interval.overlaps}


class Unsupported(CalendarError):
    """The expression holds a shape outside the closed form (caught by
    the compiler, which then reads the expression from the oracle)."""

    def __init__(self, node, why: str) -> None:
        super().__init__(f"{type(node).__name__}: {why}")
        self.node = type(node).__name__


# ---------------------------------------------------------------------------
# Run arithmetic (sorted, disjoint, non-adjacent inclusive runs)
# ---------------------------------------------------------------------------

def _union(a, b) -> list[tuple[int, int]]:
    return _merge_adjacent(sorted(a + b))


def _intersection(a, b) -> list[tuple[int, int]]:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _difference(a, b) -> list[tuple[int, int]]:
    out = []
    j = 0
    for lo, hi in a:
        while j < len(b) and b[j][1] < lo:
            j += 1
        k = j
        while k < len(b) and b[k][0] <= hi:
            if b[k][0] > lo:
                out.append((lo, b[k][0] - 1))
            lo = b[k][1] + 1
            k += 1
        if lo <= hi:
            out.append((lo, hi))
    return out


_COMBINE = {"+": _union, "&": _intersection, "-": _difference}


def _rank_in(los, his, cum, x: int) -> int:
    """Days before ``x`` in the runs ``zip(los, his)`` (``cum`` holds
    the running day counts, ``cum[0] == 0``)."""
    r = bisect_right(los, x) - 1
    if r < 0:
        return 0
    if his[r] >= x:
        return cum[r] + x - los[r]
    return cum[r + 1]


def _running(los, his) -> list[int]:
    cum = [0]
    for a, b in zip(los, his):
        cum.append(cum[-1] + b - a + 1)
    return cum


class _Ranks:
    """Rank/select over a PeriodicSet's members by arithmetic on its
    offsets and patch: ``rank(x)`` counts the members below ``x`` (from
    a fixed origin), ``day(m)`` is the member of rank ``m``."""

    __slots__ = ("period", "olos", "ohis", "ocum", "total", "plos", "phis",
                 "pcum", "window", "low", "high", "shift")

    def __init__(self, pset: PeriodicSet) -> None:
        self.period = pset.period
        self.olos, self.ohis = pset._off_los, pset._off_his
        self.ocum = _running(self.olos, self.ohis)
        self.total = self.ocum[-1] if self.period else 0
        self.plos, self.phis = pset._patch_los, pset._patch_his
        self.pcum = _running(self.plos, self.phis)
        self.window = pset.patch_window
        if self.window is not None:
            self.low = self._periodic_rank(self.window[0])
            self.high = self.low + self.pcum[-1]
            self.shift = self._periodic_rank(self.window[1] + 1) - self.high

    def _periodic_rank(self, x: int) -> int:
        if not self.total:
            return 0
        block, r = divmod(x, self.period)
        return block * self.total + _rank_in(self.olos, self.ohis,
                                             self.ocum, r)

    def _periodic_day(self, m: int) -> int:
        block, j = divmod(m, self.total)
        i = bisect_right(self.ocum, j) - 1
        return block * self.period + self.olos[i] + j - self.ocum[i]

    def rank(self, x: int) -> int:
        window = self.window
        if window is None or x <= window[0]:
            return self._periodic_rank(x)
        if x <= window[1] + 1:
            return self.low + _rank_in(self.plos, self.phis, self.pcum,
                                       x)
        return self._periodic_rank(x) - self.shift

    def day(self, m: int) -> int:
        window = self.window
        if window is None or m < self.low:
            return self._periodic_day(m)
        if m < self.high:
            k = m - self.low
            i = bisect_right(self.pcum, k) - 1
            return self.plos[i] + k - self.pcum[i]
        return self._periodic_day(m + self.shift)


class _AllRanks:
    """Rank/select over every day."""

    @staticmethod
    def rank(x: int) -> int:
        return x

    @staticmethod
    def day(m: int) -> int:
        return m


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

class _Value:
    """An expression's value on the whole axis.

    ``period``/``window`` describe its coverage: ``period``-periodic
    outside ``window`` (period 0: empty outside it; both unset: empty).
    """

    gran: Granularity | None = None
    order = 1
    labelled = False
    period = 0
    window: tuple | None = None

    def runs(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Merged coverage runs inside ``[lo, hi]``."""
        raise NotImplementedError

    def elements(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Order-1 elements overlapping ``[lo, hi]``, in calendar order."""
        raise NotImplementedError

    def observe(self, lo: int, hi: int) -> Observation:
        """What the interpreter's result over ``[lo, hi]`` shows."""
        if self.order != 1 or self.labelled:
            return Observation(self.runs(lo, hi), None, self.gran)
        return Observation(self.runs(lo, hi),
                           lambda: self.elements(lo, hi), self.gran)

    def regranulated(self, gran) -> "_Value":
        value = copy.copy(self)
        value.gran = gran
        return value


class _Tiling(_Value):
    """A basic calendar: whole units, every day covered."""

    period = 1

    def __init__(self, system, gran: Granularity) -> None:
        self.system = system
        self.gran = gran
        self.unit_period, self.span = _BASIC_FACTS[gran]
        self.labelled = gran is not Granularity.WEEKS

    def units(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """The units overlapping ``[lo, hi]``, ascending."""
        if lo > hi:
            return []
        if self.gran is Granularity.DAYS:
            return [(d, d) for d in range(lo, hi + 1)]
        los, his, _ = self.system._unit_lanes(self.gran, _unlin(lo),
                                              _unlin(hi))
        return [(_lin(a), _lin(b)) for a, b in zip(los, his)]

    def runs(self, lo, hi):
        return [(lo, hi)] if lo <= hi else []

    elements = units


class _Finite(_Value):
    """A finite order-1 (or, for coverage only, order-2) element list."""

    def __init__(self, items, gran, labelled: bool = False,
                 order: int = 1) -> None:
        self.items = tuple(items)
        self.gran = gran
        self.labelled = labelled
        self.order = order
        self.window = (min(a for a, _ in self.items),
                       max(b for _, b in self.items)) if self.items else None
        self._coverage = None
        self._days = None

    def runs(self, lo, hi):
        if self._coverage is None:
            self._coverage = _merge_adjacent(sorted(self.items))
        return _clip_runs(self._coverage, lo, hi)

    def elements(self, lo, hi):
        return [(a, b) for a, b in self.items if b >= lo and a <= hi]

    def as_days(self) -> "_Days | None":
        """This list as a day set, when it is one: single days, strictly
        ascending, order 1."""
        if self._days is None and self.order == 1:
            items = self.items
            if all(a == b for a, b in items) and all(
                    p[0] < q[0] for p, q in zip(items, items[1:])):
                self._days = _Days(0, self.window, self.runs, self.gran)
        return self._days


class _Days(_Value):
    """A day set: every element is one day, ascending and distinct.

    Order 2 marks a grouped result (a multi-pick selection) whose leaves
    are such days.  ``gen(lo, hi)`` computes the merged runs of a
    window.  :meth:`compiled` builds a PeriodicSet from one period and
    the irregular window, once: it ranks the day set for units of a
    tiling to select from, and serves every window at least as wide as
    what it read.
    """

    def __init__(self, period: int, window, gen, gran,
                 order: int = 1) -> None:
        self.period = period
        self.window = window
        self.gen = gen
        self.gran = gran
        self.order = order
        self._pset = None
        self._ranks = None

    def compiled(self) -> PeriodicSet:
        if self._pset is None:
            period, window = self.period, self.window
            offsets: tuple = ()
            if period:
                anchor = 0 if window is None else window[1] + 1
                offsets = _residue_offsets(
                    self.gen(anchor, anchor + period - 1), anchor, period)
            patch = tuple(self.gen(*window)) if window is not None else ()
            self._pset = PeriodicSet(period, offsets, window, patch)
        return self._pset

    def runs(self, lo, hi):
        if self._pset is None:
            window = self.window
            size = self.period + (window[1] - window[0] + 1 if window else 0)
            if size > hi - lo + 1:  # building the set would read more
                return self.gen(lo, hi)
        return self.compiled()._runs_linear(lo, hi)

    def ranks(self):
        if self._ranks is None:
            self._ranks = _Ranks(self.compiled())
        return self._ranks

    def observe(self, lo, hi):
        runs = self.runs(lo, hi)
        elements = None
        if self.order == 1:
            def elements():
                return [(d, d) for a, b in runs for d in range(a, b + 1)]
        return Observation(runs, elements, self.gran)

    def elements(self, lo, hi):
        return [(d, d) for a, b in self.runs(lo, hi)
                for d in range(a, b + 1)]

    def flattened(self) -> "_Days":
        value = copy.copy(self)
        value.order = 1
        return value


class _AllDays(_Days):
    """Every day: the DAYS tiling read as a day set."""

    def __init__(self, gran) -> None:
        super().__init__(1, None, self.runs, gran)
        self._pset = PeriodicSet(1, ((0, 0),))
        self._ranks = _AllRanks

    def runs(self, lo, hi):
        return [(lo, hi)] if lo <= hi else []


def _as_days(value) -> "_Days | None":
    """``value`` as an order-1 day set, or None when it is not one."""
    if isinstance(value, _Days):
        return value if value.order == 1 else None
    if isinstance(value, _Tiling):
        return _AllDays(value.gran) if value.gran is Granularity.DAYS \
            else None
    if isinstance(value, _Finite):
        return value.as_days()
    return None


def _finite_items(value) -> "tuple | None":
    """The elements of a finite order-1 value, None when infinite."""
    if isinstance(value, _Finite):
        return value.items
    if isinstance(value, _Days) and value.period == 0:
        if value.window is None:
            return ()
        return tuple(value.elements(*value.window))
    return None


def _members(member, days, glo: int, ghi: int, op: str,
             clip: bool) -> list[tuple[int, int]]:
    """The elements of order-1 ``member`` relating to ``[glo, ghi]``
    under ``op`` (clipped to it when ``clip``), in calendar order.
    ``days`` is ``member`` as a day set, when it is one."""
    if days is not None:  # a day during or overlapping g is inside it
        return [(d, d) for a, b in days.runs(glo, ghi)
                for d in range(a, b + 1)]
    if isinstance(member, _Tiling):
        candidates = member.units(glo, ghi)
    else:
        candidates = member.elements(glo, ghi)
    if op == "during":
        return [(a, b) for a, b in candidates if a >= glo and b <= ghi]
    if clip:
        return [(max(a, glo), min(b, ghi)) for a, b in candidates]
    return candidates


class _Groups(_Value):
    """``X :op: R`` over a multi-element R: one group per element of R.

    Over a tiling R the member must be a day set (its coverage is then
    the member's own); over a finite R every group is listed.
    """

    order = 2

    def __init__(self, node, member, ref, op: str, clip: bool) -> None:
        self.ref = ref
        self.gran = member.gran
        self.days = _as_days(member)
        if isinstance(ref, _Tiling):
            if self.days is None:
                raise Unsupported(node, "multi-day members over a tiling")
            self.period, self.window = self.days.period, self.days.window
            self.groups = None
        else:
            self.groups = [
                _members(member, self.days, glo, ghi, op, clip)
                for glo, ghi in _finite_items(ref)]
            self._leaves = _Finite(
                [e for group in self.groups for e in group], self.gran,
                order=2)
            self.period, self.window = 0, self._leaves.window

    def runs(self, lo, hi):
        if self.groups is None:
            return self.days.runs(lo, hi)
        return self._leaves.runs(lo, hi)

    def flattened(self) -> _Value:
        if self.groups is None:  # every member day lies in one unit
            return self.days
        return _Finite(self._leaves.items, self.gran)


def _flatten(value) -> _Value:
    if value.order == 1:
        return value
    if isinstance(value, (_Days, _Groups)):
        return value.flattened()
    return _Finite(value.items, value.gran)


def _select_tiling(pred, days: _Days, ref: _Tiling, gran,
                   order: int) -> _Days:
    """``[pred]/X:during:T`` over a tiling T: per unit of T, the picked
    positions among X's days in it, by rank/select on X's compiled set."""
    positions: dict[int, list[int]] = {}

    def gen(lo: int, hi: int) -> list[tuple[int, int]]:
        ranks = days.ranks()
        rank, day = ranks.rank, ranks.day
        picked = []
        for ulo, uhi in ref.units(lo, hi):
            first = rank(ulo)
            count = rank(uhi + 1) - first
            if not count:
                continue
            chosen = positions.get(count)
            if chosen is None:
                chosen = positions[count] = pred.positions(count)
            for p in chosen:
                d = day(first + p)
                if lo <= d <= hi:
                    picked.append(d)
        return _merge_adjacent((d, d) for d in picked)

    if days.period:
        period = _lcm0(days.period, ref.unit_period)
        window = _pad(days.window, ref.span)
    else:  # every pick is a member day, so it stays inside X's window
        period, window = 0, days.window
    return _Days(period, window, gen, gran, order)


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------

def closed_value(node, *, system, resolver, memo: dict | None = None):
    """The closed-form value of a CEL expression AST.

    Raises :class:`Unsupported` for shapes outside the closed form;
    ``memo`` (calendar name -> value) must be discarded whenever a name
    the expression uses is redefined.
    """
    return _Evaluator(system, resolver,
                      memo if memo is not None else {}).value(node)


class _Evaluator:
    def __init__(self, system, resolver, memo: dict) -> None:
        self.system = system
        self.resolver = resolver
        self.memo = memo
        self.local: dict = {}
        # Deferred, as in the classifier: repro.lang imports repro.core.
        from repro.lang import ast
        from repro.lang.defs import BasicDef, DerivedDef, ExplicitDef
        self.ast = ast
        self.BasicDef = BasicDef
        self.DerivedDef = DerivedDef
        self.ExplicitDef = ExplicitDef
        self.dispatch = {
            ast.Name: self._name,
            ast.LabelSelect: self._label_select,
            ast.IntervalLit: self._interval,
            ast.FunCall: self._funcall,
            ast.ForEach: self._foreach,
            ast.Select: self._select,
            ast.SetOp: self._setop,
        }

    def value(self, node) -> _Value:
        # Names outlive one compile (a catalog holds few, and many rules
        # share them); any other subexpression is shared within it only,
        # so first-touch texts leave nothing behind.
        if isinstance(node, self.ast.Name):
            key, memo = node.ident.lower(), self.memo
        else:
            key, memo = node, self.local
        value = memo.get(key)
        if value is None:
            method = self.dispatch.get(type(node))
            if method is None:
                raise Unsupported(node, "no closed form")
            value = memo[key] = method(node)
        return value

    def _name(self, node) -> _Value:
        definition = self.resolver(node.ident)
        if isinstance(definition, self.BasicDef):
            if definition.granularity not in _BASIC_FACTS:
                raise Unsupported(node, f"basic {definition.granularity}")
            return _Tiling(self.system, definition.granularity)
        if isinstance(definition, self.ExplicitDef):
            values = definition.values
            if values.order != 1:
                raise Unsupported(node, "explicit values of order > 1")
            return _Finite([(_lin(a), _lin(b))
                            for a, b in values.iter_pairs()],
                           values.granularity,
                           labelled=values.labels is not None)
        if isinstance(definition, self.DerivedDef):
            script = definition.script
            if not (isinstance(script, self.ast.Script)
                    and script.is_single_expression()):
                raise Unsupported(node, "multi-statement derivation")
            value = self.value(script.single_expression())
            if definition.granularity is not None:
                value = value.regranulated(definition.granularity)
            return value
        raise Unsupported(node, f"unresolved name {node.ident!r}")

    def _label_select(self, node) -> _Value:
        child = node.child
        if isinstance(child, self.ast.Name) and \
                isinstance(node.label, int) and \
                not isinstance(node.label, bool):
            definition = self.resolver(child.ident)
            if isinstance(definition, self.BasicDef) and \
                    definition.granularity is Granularity.YEARS:
                lo, hi = self.system.epoch.days_of_year(node.label)
                return _Finite([(_lin(lo), _lin(hi))], Granularity.YEARS,
                               labelled=True)
        raise Unsupported(node, "label selection other than <year>/YEARS")

    def _interval(self, node) -> _Value:
        if node.lo == 0 or node.hi == 0 or node.lo > node.hi:
            raise Unsupported(node, "not an axis interval")
        return _Finite([(_lin(node.lo), _lin(node.hi))], Granularity.DAYS)

    def _funcall(self, node) -> _Value:
        if node.name == "flatten" and len(node.args) == 1 and \
                isinstance(node.args[0], self.ast.Expr):
            return _flatten(self.value(node.args[0]))
        raise Unsupported(node, f"function {node.name!r}")

    def _foreach(self, node) -> _Value:
        predicate = _LISTOPS.get(node.op)
        listop = get_listop(node.op) if predicate is not None else None
        if predicate is None or listop.predicate is not predicate or \
                listop.shape != "grouping":
            raise Unsupported(node, f"listop {node.op!r}")
        clip = node.strict and listop.clips
        member = _flatten(self.value(node.left))
        ref = self.value(node.right)
        if ref.order != 1:
            raise Unsupported(node, "reference of order > 1")
        items = _finite_items(ref)
        if items is not None and len(items) == 1:
            # A singleton reference acts as an interval: order 1.
            (glo, ghi), = items
            found = _members(member, _as_days(member), glo, ghi, node.op,
                             clip)
            return _Finite(found, member.gran)
        if items is None and not isinstance(ref, _Tiling):
            raise Unsupported(node, "periodic non-tiling reference")
        return _Groups(node, member, ref, node.op, clip)

    def _select(self, node) -> _Value:
        pred = node.predicate
        child = self.value(node.child)
        order = 1 if pred.is_singleton() else 2
        if isinstance(child, _Groups):
            if child.groups is None:
                return _select_tiling(pred, child.days, child.ref,
                                      child.gran, order)
            picks = []
            for group in child.groups:
                picks += [group[p] for p in pred.positions(len(group))]
            return _Finite(picks, child.gran, order=order)
        items = _finite_items(child) if child.order == 1 else None
        if items is None:
            raise Unsupported(node, "window-dependent selection")
        return _Finite([items[p] for p in pred.positions(len(items))],
                       child.gran, labelled=child.labelled)

    def _setop(self, node) -> _Value:
        left = self.value(node.left)
        right = self.value(node.right)
        op = node.op
        if left.order != 1 or right.order != 1 or op not in _COMBINE:
            raise Unsupported(node, f"set operator {op!r}")
        left_days, right_days = _as_days(left), _as_days(right)
        # The result must again be a day set: every piece one day.
        if (op == "+" and (left_days is None or right_days is None)) or \
                (op == "&" and left_days is None and right_days is None) \
                or (op == "-" and left_days is None):
            raise Unsupported(node, f"{op!r} over multi-day elements")
        a = left_days or left
        b = right_days or right
        pa, pb = a.period, b.period
        if op == "&" and (pa == 0 or pb == 0):
            period, window = 0, a.window if pa == 0 else b.window
        elif op == "-" and pa == 0:
            period, window = 0, a.window
        elif op == "+" and pa == 0 and pb == 0:
            period, window = 0, _hull(a.window, b.window)
        else:
            period, window = _lcm0(pa, pb), _hull(a.window, b.window)
        combine = _COMBINE[op]

        def gen(lo: int, hi: int) -> list[tuple[int, int]]:
            return combine(a.runs(lo, hi), b.runs(lo, hi))
        return _Days(period, window, gen, left.gran)
