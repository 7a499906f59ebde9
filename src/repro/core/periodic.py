"""Periodic-set compilation: O(1) membership and next-occurrence.

CEL calendars over the paper's Gregorian basis are *eventually periodic*
(Bettini & Mascetti, "Mapping Calendar Expressions to Minimal Periodic
Sets"): weekday patterns repeat every 7 days, month/year boundary
patterns every 146 097 days (400 proleptic Gregorian years), and every
basis combination divides their lcm.  A :class:`PeriodicSet` captures a
calendar as

* a **period** ``P`` in day ticks with sorted coverage **offsets** (the
  residues covered inside one period), and
* an optional finite **patch** region — exact coverage runs over a
  bounded window that *overrides* the periodic part, which is how
  eventually-periodic sets (``Tuesdays - HOLIDAYS``, anything anchored
  to a literal year) keep their aperiodic prefix.

Membership, next/previous occurrence and forward iteration then run by
modular arithmetic over the offsets — no interval materialisation.

The compiler (:func:`compile_expression_periodic`) works in three steps:

1. **Classify** the factorized AST conservatively: derive the period
   (lcm of basis periods), the extent of any finite contribution
   (explicit values, label-selected years, interval literals) and the
   maximum element span, or raise a fallback for shapes it cannot prove
   eventually periodic (sub-day/oversized granularities, unbounded
   lookback ``<``/``<=`` groupings, window-dependent selections,
   ``today``, function calls other than ``flatten``, unexpanded derived
   scripts, lcm above the Gregorian bound).
2. **Observe** the expression over an anchor window one period wide
   (plus flanks) and over the patch extent (plus margins), and read
   coverage runs and elements out of those observations.  The windows
   come from the operator-wise closed form of
   :mod:`repro.core.closedform` — unit bounds, explicit values and
   per-unit rank/select on compiled operands, integer work only.  A
   shape outside its operator set is observed through the materialising
   oracle instead (the interpreter evaluated over the same windows;
   :func:`compile_expression_oracle` reads every shape that way).  The
   closed form is not equal to the oracle by construction: the parity
   property (``tests/property/test_periodic_props.py``) and the corpus
   check (``scripts/closed_form_parity.py``) compare every compiled field
   both ways, at both budget tiers, and are the guard against drift.
3. **Verify** periodicity on flank zones of the observed windows:
   coverage left/right of the anchor period must match the extracted
   residues, and coverage just outside the patch window must match the
   periodic part (or be empty for purely finite sets).  Any mismatch
   falls back to ``None`` — the compiled path never guesses.

All arithmetic happens in *linear coordinates* ``L(t) = t - 1 if t > 0
else t`` (the order-preserving bijection that removes the zero-skip of
the axis), so residues are plain ``L % P``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Iterator

from repro.core.calendar import Calendar
from repro.core.columnar import IntervalColumns
from repro.core.granularity import Granularity

__all__ = [
    "GREGORIAN_PERIOD_DAYS",
    "PeriodicSet",
    "compile_expression_oracle",
    "compile_expression_periodic",
]

#: 400 proleptic Gregorian years: the master period of the day basis.
#: Both the weekday cycle (7) and the month/year boundary pattern divide
#: it, so every compilable basis combination has lcm <= this bound.
GREGORIAN_PERIOD_DAYS = 146_097

#: Basic granularity facts: (period in days, max element span in days).
#: DECADES/CENTURY are deliberately absent — their spans would force
#: margins (and anchor evaluations) past any sensible one-time budget.
_BASIC_FACTS = {
    Granularity.DAYS: (1, 1),
    Granularity.WEEKS: (7, 7),
    Granularity.MONTHS: (GREGORIAN_PERIOD_DAYS, 31),
    Granularity.YEARS: (GREGORIAN_PERIOD_DAYS, 366),
}

#: Grouping relations whose member window is unbounded to the left.
_UNBOUNDED_LOOKBACK = ("<", "<=")


def _lin(tick: int) -> int:
    """Axis tick -> linear coordinate (removes the zero skip)."""
    return tick - 1 if tick > 0 else tick


def _unlin(lin: int) -> int:
    """Linear coordinate -> axis tick."""
    return lin + 1 if lin >= 0 else lin


# ---------------------------------------------------------------------------
# Coverage-run helpers (runs are inclusive (lo, hi) pairs, linear coords)
# ---------------------------------------------------------------------------

def _coverage_runs(cal: Calendar) -> list[tuple[int, int]]:
    """Merged, sorted coverage runs of a calendar, in linear coords."""
    spans = sorted((iv.lo, iv.hi) for iv in cal.iter_intervals())
    runs: list[tuple[int, int]] = []
    for lo, hi in spans:
        llo, lhi = _lin(lo), _lin(hi)
        if runs and llo <= runs[-1][1] + 1:
            if lhi > runs[-1][1]:
                runs[-1] = (runs[-1][0], lhi)
        else:
            runs.append((llo, lhi))
    return runs


def _clip_runs(runs, lo: int, hi: int) -> list[tuple[int, int]]:
    """The part of sorted, disjoint ``runs`` inside ``[lo, hi]``."""
    start = bisect_left(runs, (lo, lo))
    if start and runs[start - 1][1] >= lo:
        start -= 1
    out = []
    for a, b in runs[start:]:
        if a > hi:
            break
        out.append((max(a, lo), min(b, hi)))
    return out


def _next_in_runs(los, his, x: int) -> int | None:
    """Smallest covered value >= x within sorted runs, else None."""
    idx = bisect_right(los, x) - 1
    if idx >= 0 and his[idx] >= x:
        return x
    idx += 1
    if idx < len(los):
        return los[idx]
    return None


def _prev_in_runs(los, his, x: int) -> int | None:
    """Largest covered value <= x within sorted runs, else None."""
    idx = bisect_right(los, x) - 1
    if idx < 0:
        return None
    return min(his[idx], x)


def _covered(los, his, x: int) -> bool:
    idx = bisect_right(los, x) - 1
    return idx >= 0 and his[idx] >= x


# ---------------------------------------------------------------------------
# PeriodicSet
# ---------------------------------------------------------------------------

@dataclass
class PeriodicSet:
    """A (eventually) periodic set of day ticks with O(log offsets) probes.

    ``period == 0`` means no periodic part (a purely finite set); an
    empty ``offsets`` with ``period > 0`` is the empty periodic part.
    ``patch_window``/``patch`` (linear coords) override the periodic
    part inside the window — the aperiodic prefix/region.

    ``elements``/``patch_elements`` additionally record the *element
    structure* of the oracle result (per-period offsets resp. absolute
    linear intervals, ``elements`` ascending by start); when
    ``exact_elements`` is true they reproduce the materialising
    backend's order-1 result exactly and the plan optimizer may
    substitute a :class:`~repro.lang.plan.PeriodicStep`.
    """

    period: int
    offsets: tuple = ()
    patch_window: tuple | None = None
    patch: tuple = ()
    elements: tuple = ()
    patch_elements: tuple = ()
    granularity: Granularity | None = None
    exact_elements: bool = False
    source: str = ""

    # bisect arrays, built once
    _off_los: list = field(init=False, repr=False, default_factory=list)
    _off_his: list = field(init=False, repr=False, default_factory=list)
    _patch_los: list = field(init=False, repr=False, default_factory=list)
    _patch_his: list = field(init=False, repr=False, default_factory=list)
    #: Element starts (ascending: the compiler keeps only sorted
    #: element lists), ends and the widest element's span, for
    #: ``expand``.
    _el_los: list = field(init=False, repr=False, default_factory=list)
    _el_his: list = field(init=False, repr=False, default_factory=list)
    _el_span: int = field(init=False, repr=False, default=0)

    def __post_init__(self) -> None:
        self._off_los = [a for a, _ in self.offsets]
        self._off_his = [b for _, b in self.offsets]
        self._patch_los = [a for a, _ in self.patch]
        self._patch_his = [b for _, b in self.patch]
        self._el_los = [a for a, _ in self.elements]
        self._el_his = [b for _, b in self.elements]
        self._el_span = max((b - a for a, b in self.elements), default=0)

    # -- point probes ------------------------------------------------------------

    def contains(self, tick: int) -> bool:
        """Membership of an axis day tick, by modular arithmetic."""
        lin = _lin(tick)
        pw = self.patch_window
        if pw is not None and pw[0] <= lin <= pw[1]:
            return _covered(self._patch_los, self._patch_his, lin)
        if self.period and self._off_los:
            return _covered(self._off_los, self._off_his,
                            lin % self.period)
        return False

    def _next_periodic(self, lin: int) -> int | None:
        if not (self.period and self._off_los):
            return None
        block, residue = divmod(lin, self.period)
        value = _next_in_runs(self._off_los, self._off_his, residue)
        if value is not None:
            return block * self.period + value
        return (block + 1) * self.period + self._off_los[0]

    def _prev_periodic(self, lin: int) -> int | None:
        if not (self.period and self._off_los):
            return None
        block, residue = divmod(lin, self.period)
        value = _prev_in_runs(self._off_los, self._off_his, residue)
        if value is not None:
            return block * self.period + value
        return (block - 1) * self.period + self._off_his[-1]

    def _next_linear(self, lin: int) -> int | None:
        pw = self.patch_window
        best = None
        candidate = self._next_periodic(lin)
        if candidate is not None and pw is not None and \
                pw[0] <= candidate <= pw[1]:
            candidate = self._next_periodic(pw[1] + 1)
        best = candidate
        if pw is not None and lin <= pw[1]:
            hit = _next_in_runs(self._patch_los, self._patch_his,
                                max(lin, pw[0]))
            if hit is not None and hit <= pw[1] and \
                    (best is None or hit < best):
                best = hit
        return best

    def _prev_linear(self, lin: int) -> int | None:
        pw = self.patch_window
        candidate = self._prev_periodic(lin)
        if candidate is not None and pw is not None and \
                pw[0] <= candidate <= pw[1]:
            candidate = self._prev_periodic(pw[0] - 1)
        best = candidate
        if pw is not None and lin >= pw[0]:
            hit = _prev_in_runs(self._patch_los, self._patch_his,
                                min(lin, pw[1]))
            if hit is not None and hit >= pw[0] and \
                    (best is None or hit > best):
                best = hit
        return best

    def next_occurrence(self, tick: int) -> int | None:
        """Smallest member strictly after axis tick ``tick`` (or None)."""
        lin = self._next_linear(_lin(tick) + 1)
        return None if lin is None else _unlin(lin)

    def prev_occurrence(self, tick: int) -> int | None:
        """Largest member strictly before axis tick ``tick`` (or None)."""
        lin = self._prev_linear(_lin(tick) - 1)
        return None if lin is None else _unlin(lin)

    def _periodic_runs(self, lo: int, hi: int, out: list) -> None:
        """Append the periodic part's runs inside linear ``[lo, hi]``.

        Whole blocks in the middle of a wide window are laid down by one
        comprehension (no per-block bisect); a part that covers its whole
        period is a single run.
        """
        if not (self.period and self._off_los) or lo > hi:
            return
        period, los, his = self.period, self._off_los, self._off_his
        if los[0] == 0 and his[-1] == period - 1 and len(los) == 1:
            out.append((lo, hi))
            return
        first, last = lo // period, hi // period
        if last - first > 2:
            self._block_runs(first, lo, hi, out)
            pairs = tuple(zip(los, his))
            out += [(base + a, base + b)
                    for base in range((first + 1) * period, last * period,
                                      period)
                    for a, b in pairs]
            self._block_runs(last, lo, hi, out)
            return
        for block in range(first, last + 1):
            self._block_runs(block, lo, hi, out)

    def _block_runs(self, block: int, lo: int, hi: int, out: list) -> None:
        """Append one block's periodic runs clipped to ``[lo, hi]``."""
        period, los, his = self.period, self._off_los, self._off_his
        base = block * period
        wlo, whi = max(lo - base, 0), min(hi - base, period - 1)
        i = bisect_left(his, wlo)
        while i < len(los) and los[i] <= whi:
            out.append((base + max(los[i], wlo), base + min(his[i], whi)))
            i += 1

    def _runs_linear(self, a: int, b: int) -> list[tuple[int, int]]:
        """Merged member runs inside linear ``[a, b]``, ascending."""
        if a > b:
            return []
        lin_runs: list[tuple[int, int]] = []
        pw = self.patch_window
        if pw is None or pw[1] < a or pw[0] > b:
            self._periodic_runs(a, b, lin_runs)
        else:
            self._periodic_runs(a, pw[0] - 1, lin_runs)
            plo, phi = max(a, pw[0]), min(b, pw[1])
            i = bisect_left(self._patch_his, plo)
            while i < len(self._patch_los) and self._patch_los[i] <= phi:
                lin_runs.append((max(self._patch_los[i], plo),
                                 min(self._patch_his[i], phi)))
                i += 1
            self._periodic_runs(pw[1] + 1, b, lin_runs)
        return _merge_adjacent(lin_runs)

    def runs_between(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """The members inside axis ticks ``[lo, hi]`` as inclusive runs.

        Runs are ascending, disjoint and never adjacent, and tick 0 is
        never a member (a run that would cross it is split there), so
        a range scan over the runs agrees with :meth:`contains` on every
        nonzero tick — one run per calendar interval, not one probe per
        tick.
        """
        a, b = _lin(1 if lo == 0 else lo), _lin(-1 if hi == 0 else hi)
        out: list[tuple[int, int]] = []
        for ra, rb in self._runs_linear(a, b):
            if ra < 0 <= rb:  # crosses the axis's missing tick 0
                out.append((_unlin(ra), -1))
                out.append((1, _unlin(rb)))
            else:
                out.append((_unlin(ra), _unlin(rb)))
        return out

    def iter_from(self, tick: int) -> Iterator[int]:
        """Members >= ``tick`` in increasing order (possibly unbounded)."""
        current = tick if self.contains(tick) else \
            self.next_occurrence(tick)
        while current is not None:
            yield current
            current = self.next_occurrence(current)

    # -- element expansion (plan backend) -----------------------------------------

    def expand(self, window: tuple[int, int]) -> Calendar:
        """The order-1 calendar of elements overlapping ``window`` (ticks).

        Only meaningful when ``exact_elements`` is true — the compiler
        sets it only for purely periodic or purely finite sets whose
        element structure provably tiles, so periodic and patch elements
        never need to be mixed here.
        """
        lo, hi = _lin(window[0]), _lin(window[1])
        # Endpoint lanes built directly, in axis ticks (``_unlin``
        # inlined); the order is detected lazily by the columns, since
        # patch elements follow the periodic blocks.
        los: list[int] = []
        his: list[int] = []
        period, elements = self.period, self.elements
        if period and elements:
            starts, ends, span = self._el_los, self._el_his, self._el_span

            def edge(block: int) -> None:
                # Only elements starting within ``span`` of the window
                # can overlap it: bisected on the sorted starts.
                base = block * period
                for elo, ehi in elements[
                        bisect_left(starts, lo - base - span):
                        bisect_right(starts, hi - base)]:
                    alo, ahi = base + elo, base + ehi
                    if ahi >= lo:
                        los.append(alo + 1 if alo >= 0 else alo)
                        his.append(ahi + 1 if ahi >= 0 else ahi)

            first, last = (lo - span - period) // period, hi // period
            # Blocks ``inner``..``outer`` lie wholly inside the window:
            # every element of theirs overlaps it.
            inner, outer = -(-lo // period), (hi + 1) // period - 1
            for block in range(first, min(inner, last + 1)):
                edge(block)
            if inner <= outer:
                for block in range(inner, min(outer + 1, 0)):
                    edge(block)
                bases = range(max(inner, 0) * period + 1,
                              (outer + 1) * period + 1, period)
                los += [base + a for base in bases for a in starts]
                his += [base + b for base in bases for b in ends]
            for block in range(max(outer + 1, inner), last + 1):
                edge(block)
        for elo, ehi in self.patch_elements:
            if ehi < lo or elo > hi:
                continue
            los.append(_unlin(elo))
            his.append(_unlin(ehi))
        return Calendar._from_columns(IntervalColumns.from_lists(los, his),
                                      self.granularity)

    def expansion_cost(self, window: tuple[int, int]) -> int:
        """Estimated interval count of :meth:`expand` over ``window``."""
        days = _lin(window[1]) - _lin(window[0]) + 1
        cost = len(self.patch_elements)
        if self.period and self.elements:
            cost += (days // self.period + 2) * len(self.elements)
        return cost

    def describe(self) -> str:
        """One-line summary for plans/explain output."""
        if self.period:
            text = f"period={self.period}d offsets={len(self.offsets)}"
        else:
            text = "finite"
        if self.patch_window is not None:
            width = self.patch_window[1] - self.patch_window[0] + 1
            text += f" patch={width}d/{len(self.patch)} runs"
        return text


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

class _Fallback(Exception):
    """Raised when an expression cannot be proven eventually periodic."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class _Shape:
    """Conservative facts about a subexpression's coverage.

    ``period == 0`` with an extent is a purely finite set; ``period >
    0`` with an extent is eventually periodic (patch region needed);
    both unset never occurs.  ``span`` bounds the day length of any
    single coverage element (used for margins and extent padding).
    """

    period: int = 0
    extent: tuple | None = None
    span: int = 1


def _lcm0(a: int, b: int) -> int:
    """lcm treating 0 as the absorbing 'no periodic part'."""
    if a == 0:
        return b
    if b == 0:
        return a
    return a * b // gcd(a, b)


def _hull(*extents) -> tuple | None:
    present = [e for e in extents if e is not None]
    if not present:
        return None
    return (min(e[0] for e in present), max(e[1] for e in present))


def _pad(extent: tuple | None, amount: int) -> tuple | None:
    if extent is None:
        return None
    return (extent[0] - amount, extent[1] + amount)


class _Classifier:
    """AST walk deriving a :class:`_Shape` (or raising :class:`_Fallback`)."""

    def __init__(self, resolver, system, max_period: int) -> None:
        self.resolver = resolver
        self.system = system
        self.max_period = max_period
        self.max_span = 1
        # Deferred: repro.lang imports repro.core modules at import time;
        # pulling the AST in lazily keeps core -> lang acyclic.
        from repro.lang import ast
        from repro.lang.defs import BasicDef, DerivedDef, ExplicitDef
        self.ast = ast
        self.BasicDef = BasicDef
        self.DerivedDef = DerivedDef
        self.ExplicitDef = ExplicitDef

    def classify(self, node) -> _Shape:
        ast = self.ast
        if isinstance(node, ast.Name):
            return self._name(node)
        if isinstance(node, ast.ForEach):
            return self._foreach(node)
        if isinstance(node, ast.Select):
            return self._select(node)
        if isinstance(node, ast.LabelSelect):
            return self._label_select(node)
        if isinstance(node, ast.SetOp):
            return self._setop(node)
        if isinstance(node, ast.IntervalLit):
            return self._interval(node)
        if isinstance(node, ast.FunCall):
            if node.name.lower() == "flatten" and len(node.args) == 1 \
                    and isinstance(node.args[0], ast.Expr):
                # flatten only collapses order; coverage is unchanged.
                return self.classify(node.args[0])
            raise _Fallback(f"function call {node.name!r}")
        if isinstance(node, ast.Today):
            raise _Fallback("'today' is environment-dependent")
        raise _Fallback(f"unsupported node {type(node).__name__}")

    def _note_span(self, span: int) -> int:
        self.max_span = max(self.max_span, span)
        return span

    def _name(self, node) -> _Shape:
        definition = self.resolver(node.ident)
        if definition is None:
            raise _Fallback(f"unknown name {node.ident!r}")
        if isinstance(definition, self.BasicDef):
            facts = _BASIC_FACTS.get(definition.granularity)
            if facts is None:
                raise _Fallback(
                    f"granularity {definition.granularity} is outside the "
                    f"compilable basis")
            period, span = facts
            self._note_span(span)
            return _Shape(period=period, span=span)
        if isinstance(definition, self.ExplicitDef):
            values = definition.values
            if len(values) == 0:
                return _Shape(period=0, extent=(0, 0), span=1)
            hull = values.span()
            span = max((iv.hi - iv.lo + 1 for iv in values.iter_intervals()),
                       default=1)
            self._note_span(span)
            return _Shape(period=0,
                          extent=(_lin(hull.lo), _lin(hull.hi)), span=span)
        # A Name surviving factorization resolves to a multi-statement
        # derived script (or something stranger): not expandable.
        raise _Fallback(f"{node.ident!r} is not an inlinable definition")

    def _foreach(self, node) -> _Shape:
        if node.op in _UNBOUNDED_LOOKBACK:
            raise _Fallback(f"unbounded lookback relation {node.op!r}")
        left = self.classify(node.left)
        right = self.classify(node.right)
        span = left.span
        pad = left.span + right.span + 2
        if left.period == 0:
            # Members only exist near the left extent.
            return _Shape(period=0, extent=_pad(left.extent, pad),
                          span=span)
        if right.period == 0:
            # Groups only form near the (finite) reference extent.
            return _Shape(period=0, extent=_pad(right.extent, pad),
                          span=span)
        period = self._cap(_lcm0(left.period, right.period))
        extent = _hull(_pad(left.extent, pad), _pad(right.extent, pad))
        return _Shape(period=period, extent=extent, span=span)

    def _select(self, node) -> _Shape:
        # Positional selection is window-independent only inside the
        # groups of a bounded foreach; over anything order-1 the chosen
        # positions depend on the evaluation window.
        child = node.child
        if not isinstance(child, self.ast.ForEach):
            raise _Fallback("positional selection over a non-grouping "
                            "expression is window-dependent")
        return self.classify(child)

    def _label_select(self, node) -> _Shape:
        # Only year labels are unique along the axis; any other label
        # select picks the first match in the window.
        child = node.child
        if isinstance(child, self.ast.Name) and \
                isinstance(node.label, int):
            definition = self.resolver(child.ident)
            if isinstance(definition, self.BasicDef) and \
                    definition.granularity == Granularity.YEARS:
                lo, hi = self.system.epoch.days_of_year(node.label)
                self._note_span(366)
                return _Shape(period=0, extent=(_lin(lo), _lin(hi)),
                              span=366)
        raise _Fallback(f"label selection {node.label!r} is "
                        "window-dependent")

    def _setop(self, node) -> _Shape:
        left = self.classify(node.left)
        right = self.classify(node.right)
        span = max(left.span, right.span)
        if node.op == "&":
            if left.period == 0:
                return _Shape(period=0, extent=left.extent, span=span)
            if right.period == 0:
                return _Shape(period=0, extent=right.extent, span=span)
        elif node.op == "-":
            if left.period == 0:
                return _Shape(period=0, extent=left.extent, span=span)
        elif node.op != "+":
            raise _Fallback(f"set operator {node.op!r}")
        if node.op == "+" and left.period == 0 and right.period == 0:
            return _Shape(period=0, extent=_hull(left.extent, right.extent),
                          span=span)
        period = self._cap(_lcm0(left.period, right.period))
        return _Shape(period=period,
                      extent=_hull(left.extent, right.extent), span=span)

    def _interval(self, node) -> _Shape:
        lo, hi = _lin(node.lo), _lin(node.hi)
        span = max(1, hi - lo + 1)
        self._note_span(span)
        return _Shape(period=0, extent=(lo, hi), span=span)

    def _cap(self, period: int) -> int:
        if period > self.max_period:
            raise _Fallback(
                f"combined period {period} exceeds the bound "
                f"{self.max_period}")
        return period


# ---------------------------------------------------------------------------
# Compilation (windowed observations + flank verification)
# ---------------------------------------------------------------------------

class Observation:
    """What the compiler reads from one evaluation window of a value.

    ``runs`` are merged coverage runs (linear coords) — at least over
    the window, possibly beyond it; :meth:`elements` is the order-1
    element list in calendar order (linear pairs), or ``None`` when the
    value is of higher order or labelled, computed on first use because
    only purely periodic and purely finite shapes read it.
    """

    __slots__ = ("runs", "granularity", "_elements")

    def __init__(self, runs, elements: Callable[[], "list | None"],
                 granularity) -> None:
        self.runs = runs
        self.granularity = granularity
        self._elements = elements

    def elements(self) -> "list | None":
        """The order-1 element list (computed once), or None."""
        if callable(self._elements):
            self._elements = self._elements()
        return self._elements


def _oracle_calendar(evaluate, lo_lin: int, hi_lin: int) -> Calendar:
    result = evaluate((_unlin(lo_lin), _unlin(hi_lin)))
    if not isinstance(result, Calendar):
        raise _Fallback("oracle evaluation did not produce a calendar")
    return result


def _calendar_elements(cal: Calendar) -> "list | None":
    if cal.order != 1 or cal.labels is not None:
        return None
    return [(_lin(lo), _lin(hi)) for lo, hi in cal.iter_pairs()]


def _oracle_observer(evaluate):
    """Observations read off the materialising oracle's evaluations."""
    def observe(lo: int, hi: int) -> Observation:
        cal = _oracle_calendar(evaluate, lo, hi)
        return Observation(_coverage_runs(cal),
                           lambda: _calendar_elements(cal), cal.granularity)
    return observe


def _expected_from_offsets(offsets, period: int, lo: int,
                           hi: int) -> list[tuple[int, int]]:
    """Coverage runs of the periodic tiling inside ``[lo, hi]``, merged
    across block boundaries (a run wrapping the period is stored split)."""
    if not offsets or period == 0:
        return []
    return PeriodicSet(period, offsets)._runs_linear(lo, hi)


def _merge_adjacent(runs) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for a, b in runs:
        if merged and a <= merged[-1][1] + 1:
            if b > merged[-1][1]:
                merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return merged


def _residue_offsets(runs, anchor: int, period: int) -> tuple:
    """Canonical offsets of the runs inside ``[anchor, anchor + P - 1]``:
    residues mod ``P``, a run wrapping the period boundary stored split."""
    residues: list[tuple[int, int]] = []
    for a, b in _clip_runs(runs, anchor, anchor + period - 1):
        ra = a % period
        rb = ra + (b - a)
        if rb < period:
            residues.append((ra, rb))
        else:
            residues += ((ra, period - 1), (0, rb - period))
    return tuple(_merge_adjacent(sorted(residues)))


def _element_offsets(elements, lo: int, hi: int, base: int):
    """Order-1 elements with lo in ``[lo, hi]``, shifted by -base.

    Returns None when the value's element structure cannot be reused
    (higher order, labels, unsorted elements).
    """
    if elements is None:
        return None
    out = []
    previous = None
    for llo, lhi in elements:
        if previous is not None and llo < previous:
            return None
        previous = llo
        if lo <= llo <= hi:
            out.append((llo - base, lhi - base))
    return out


def compile_expression_periodic(
        expr, *, system, resolver,
        evaluate: Callable[[tuple], Calendar],
        source: str = "",
        max_period: int = GREGORIAN_PERIOD_DAYS,
        max_eval_days: int = 220_000,
        reason_out: list | None = None,
        raw=None, memo: dict | None = None,
        path_out: list | None = None, tracer=None) -> PeriodicSet | None:
    """Compile a factorized CEL AST to a :class:`PeriodicSet`.

    The windows the compiler reads come from the operator-wise closed
    form (:mod:`repro.core.closedform`) of ``raw`` — the unfactorized
    AST the interpreter would run, ``expr`` when not given — with
    calendar names' values memoised in ``memo``.  A shape outside the
    closed form's operator set is read from ``evaluate``, the
    materialising oracle: a callable mapping an axis tick window to the
    expression's Calendar over that window (the registry passes its
    interpreter path).  ``path_out`` receives ``("closed", None)`` or
    ``("oracle", node_kind)`` once classification admits the shape.

    Returns ``None`` — with the reason appended to ``reason_out`` —
    whenever the expression cannot be proven eventually periodic or the
    windows would exceed ``max_eval_days``; the caller then stays on
    the materialising path.
    """
    def closed_observer():
        observe = closedform.closed_value(
            expr if raw is None else raw, system=system, resolver=resolver,
            memo=memo).observe
        if path_out is not None:
            path_out.append(("closed", None))
        return observe

    with tracer.span("periodic.closed", source=source) \
            if tracer is not None else nullcontext():
        try:
            return _compile_with(expr, system, resolver, source,
                                 max_period, max_eval_days, reason_out,
                                 closed_observer)
        except closedform.Unsupported as unsupported:
            node = unsupported.node
    # Outside the closed form's span: the oracle's evaluations nest
    # directly under the caller's.
    if path_out is not None:
        path_out.append(("oracle", node))
    return compile_expression_oracle(
        expr, system=system, resolver=resolver, evaluate=evaluate,
        source=source, max_period=max_period, max_eval_days=max_eval_days,
        reason_out=reason_out)


def compile_expression_oracle(
        expr, *, system, resolver,
        evaluate: Callable[[tuple], Calendar],
        source: str = "",
        max_period: int = GREGORIAN_PERIOD_DAYS,
        max_eval_days: int = 220_000,
        reason_out: list | None = None) -> PeriodicSet | None:
    """The reference compile: every window read from ``evaluate``.

    Same classification, budgets, verification and fallback reasons as
    :func:`compile_expression_periodic`; it is what that function falls
    back to for shapes outside the closed form, and the parity oracle
    the closed form is tested against.
    """
    return _compile_with(expr, system, resolver, source, max_period,
                         max_eval_days, reason_out,
                         lambda: _oracle_observer(evaluate))


def _compile_with(expr, system, resolver, source, max_period,
                  max_eval_days, reason_out, observer_for):
    """Classify ``expr`` and compile the admitted shape, reading its
    windows from ``observer_for()``.  Returns None, with the reason
    appended to ``reason_out``, on a fallback."""
    try:
        classifier = _Classifier(resolver, system, max_period)
        shape = classifier.classify(expr)
        return _compile(shape, classifier.max_span, observer_for(), source,
                        max_eval_days)
    except _Fallback as fallback:
        if reason_out is not None:
            reason_out.append(fallback.reason)
        return None


def _compile(shape, max_span, observe, source, max_eval_days) -> PeriodicSet:
    margin = 2 * max_span + 70

    offsets: tuple = ()
    elements: tuple = ()
    granularity = None
    exact = False
    period = shape.period

    if period:
        (offsets, elements, granularity,
         exact) = _compile_periodic_part(shape, margin, period, observe,
                                         max_eval_days)

    patch_window = None
    patch: tuple = ()
    patch_elements: tuple = ()
    if shape.extent is not None:
        (patch_window, patch, patch_elements, patch_gran,
         patch_exact) = _compile_patch(shape, margin, offsets, period,
                                       observe, max_eval_days)
        if period:
            exact = False  # hybrid: never substitute the plan backend
            patch_elements = ()
        else:
            granularity = patch_gran
            exact = patch_exact

    return PeriodicSet(period=period, offsets=offsets,
                       patch_window=patch_window, patch=patch,
                       elements=elements, patch_elements=patch_elements,
                       granularity=granularity, exact_elements=exact,
                       source=source)


def _compile_periodic_part(shape, margin, period, observe, max_eval_days):
    """Observe one period plus flanks; extract + verify offsets.

    The anchor is 0 (a multiple of every period) for a purely periodic
    shape and just past the patch's trusted zone otherwise.  On the
    oracle path this also keeps the oracle's basic calendars extending
    the shared cache entries the present era already uses, instead of
    installing a window 400 years out.
    """
    flank = min(period, 2 * margin)
    anchor = 0 if shape.extent is None else shape.extent[1] + 2 * margin + 1
    lo = anchor - margin - flank
    hi = anchor + period - 1 + margin + flank
    if hi - lo + 1 > max_eval_days:
        raise _Fallback(
            f"anchor window of {hi - lo + 1} days exceeds the "
            f"{max_eval_days}-day evaluation budget")
    observed = observe(lo, hi)
    runs = observed.runs
    offsets = _residue_offsets(runs, anchor, period)
    # Flank verification: the trusted interior of the window is
    # [anchor - flank, anchor + period - 1 + flank]; both flanks must
    # reproduce the extracted residues exactly.
    for zone in ((anchor - flank, anchor - 1),
                 (anchor + period, anchor + period - 1 + flank)):
        if zone[0] > zone[1]:
            continue
        seen = _merge_adjacent(_clip_runs(runs, zone[0], zone[1]))
        expected = _expected_from_offsets(offsets, period, zone[0],
                                          zone[1])
        if seen != expected:
            raise _Fallback(
                "flank verification failed: the expression is not "
                f"{period}-day periodic near the anchor window")

    elements: tuple = ()
    exact = False
    if shape.extent is None:
        members = observed.elements()
        block = _element_offsets(members, anchor, anchor + period - 1,
                                 anchor)
        if block is not None:
            left = _element_offsets(members, anchor - flank, anchor - 1,
                                    anchor - period)
            right = _element_offsets(members, anchor + period,
                                     anchor + period - 1 + flank,
                                     anchor + period)
            head = [e for e in block if e[0] <= flank - 1]
            tail = [e for e in block if e[0] >= period - flank]
            if left == tail and right == head:
                elements = tuple(block)
                exact = True
    return offsets, elements, observed.granularity, exact


def _compile_patch(shape, margin, offsets, period, observe, max_eval_days):
    """Observe the finite region; verify it rejoins the period."""
    ext_lo, ext_hi = shape.extent
    patch_window = (ext_lo - margin, ext_hi + margin)
    lo = ext_lo - 3 * margin
    hi = ext_hi + 3 * margin
    if hi - lo + 1 > max_eval_days:
        raise _Fallback(
            f"patch window of {hi - lo + 1} days exceeds the "
            f"{max_eval_days}-day evaluation budget")
    observed = observe(lo, hi)
    runs = observed.runs
    patch = tuple(_clip_runs(runs, patch_window[0], patch_window[1]))
    # Outside the patch window (but inside the trusted interior
    # [ext - 2*margin, ext + 2*margin]) the set must already equal the
    # periodic part — empty when there is none.
    for zone in ((ext_lo - 2 * margin, patch_window[0] - 1),
                 (patch_window[1] + 1, ext_hi + 2 * margin)):
        if zone[0] > zone[1]:
            continue
        seen = _merge_adjacent(_clip_runs(runs, zone[0], zone[1]))
        expected = _expected_from_offsets(offsets, period, zone[0],
                                          zone[1])
        if seen != expected:
            raise _Fallback(
                "patch verification failed: aperiodic coverage leaks "
                "outside the computed patch window")

    patch_elements: tuple = ()
    exact = False
    if period == 0:
        members = observed.elements()
        els = _element_offsets(members, patch_window[0] + 2,
                               patch_window[1] - 2, 0)
        count = len(members) if members is not None else -1
        if els is not None and count == len(els):
            # Every element of the observed value lies strictly inside
            # the patch window, so overlap-filtering them reproduces
            # the materialised result under any evaluation window.
            patch_elements = tuple(els)
            exact = True
    return patch_window, patch, patch_elements, observed.granularity, exact


# The closed form builds on PeriodicSet and Observation above, so it is
# bound last, as a module: either of the two may be imported first.
from repro.core import closedform  # noqa: E402
