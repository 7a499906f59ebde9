"""Unit tests of the closed-form evaluator (``repro.core.closedform``):
its run arithmetic, rank/select over compiled sets, the shapes it
refuses, and its values against the interpreter over one window."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.closedform import (
    Unsupported,
    _difference,
    _intersection,
    _Ranks,
    _union,
    closed_value,
)
from repro.core.errors import CalendarError
from repro.core.periodic import (
    PeriodicSet,
    _clip_runs,
    _lin,
    _oracle_observer,
    _unlin,
)


@st.composite
def runs(draw, lo: int = -30, hi: int = 30):
    """Sorted, disjoint, non-adjacent inclusive runs inside [lo, hi]."""
    out, at = [], lo + draw(st.integers(0, 4))
    while at <= hi and draw(st.booleans()):
        b = min(at + draw(st.integers(0, 4)), hi)
        out.append((at, b))
        at = b + 2 + draw(st.integers(0, 4))
    return out


def _days(rs) -> set[int]:
    return {d for a, b in rs for d in range(a, b + 1)}


def _canonical(rs) -> bool:
    return all(a <= b for a, b in rs) and all(
        b + 1 < a for (_, b), (a, _) in zip(rs, rs[1:]))


@settings(max_examples=200, deadline=None)
@given(runs(), runs())
def test_union_matches_day_sets(a, b):
    out = _union(a, b)
    assert _canonical(out), out
    assert _days(out) == _days(a) | _days(b)


@settings(max_examples=200, deadline=None)
@given(runs(), runs())
def test_intersection_matches_day_sets(a, b):
    out = _intersection(a, b)
    assert _canonical(out), out
    assert _days(out) == _days(a) & _days(b)


@settings(max_examples=200, deadline=None)
@given(runs(), runs())
def test_difference_matches_day_sets(a, b):
    out = _difference(a, b)
    assert _canonical(out), out
    assert _days(out) == _days(a) - _days(b)


def test_union_merges_adjacent_runs():
    assert _union([(1, 3), (10, 12)], [(4, 9)]) == [(1, 12)]
    assert _union([(1, 3)], [(5, 6)]) == [(1, 3), (5, 6)]


@st.composite
def ranked_sets(draw):
    """A nonempty periodic part, with and without a patch window."""
    period = draw(st.integers(1, 12))
    offsets = tuple(draw(runs(0, period - 1).filter(bool)))
    patch_window, patch = None, ()
    if draw(st.booleans()):
        start = draw(st.integers(-20, 20))
        patch_window = (start, start + draw(st.integers(0, 15)))
        patch = tuple(draw(runs(*patch_window)))
    return PeriodicSet(period, offsets, patch_window, patch)


def _member(pset, x: int) -> bool:
    """Whether linear day ``x`` is in ``pset``."""
    return pset.contains(_unlin(x))


@settings(max_examples=200, deadline=None)
@given(ranked_sets(), st.integers(-60, 60), st.integers(0, 60))
def test_rank_differences_count_members(pset, lo, width):
    ranks = _Ranks(pset)
    hi = lo + width
    assert ranks.rank(hi) - ranks.rank(lo) == sum(
        _member(pset, x) for x in range(lo, hi))


@settings(max_examples=200, deadline=None)
@given(ranked_sets(), st.integers(-60, 60), st.integers(0, 60))
def test_day_inverts_rank_on_members(pset, lo, width):
    ranks = _Ranks(pset)
    for x in range(lo, lo + width + 1):
        if _member(pset, x):
            assert ranks.day(ranks.rank(x)) == x


# ---------------------------------------------------------------------------
# Whole expressions
# ---------------------------------------------------------------------------

def _value(registry, text, memo=None):
    parsed, _ = registry._parsed_asts(text, None)
    return closed_value(parsed, system=registry.system,
                        resolver=registry.resolver, memo=memo)


@pytest.mark.parametrize("text,node", [
    ("WEEKS:during:MONTHS", "ForEach"),
    ("DAYS:during:[1-3]/DAYS:during:WEEKS", "ForEach"),
    ("[1]/WEEKS", "Select"),
    ("WEEKS + MONTHS", "SetOp"),
])
def test_unsupported_shapes_name_their_node(registry, text, node):
    with pytest.raises(Unsupported) as caught:
        _value(registry, text)
    assert caught.value.node == node


def test_unsupported_is_a_calendar_error(registry):
    with pytest.raises(CalendarError):
        _value(registry, "[1]/WEEKS")


def test_name_values_are_memoised(registry):
    memo: dict = {}
    first = _value(registry, "AM_BUS_DAYS", memo)
    assert memo["am_bus_days"] is first
    assert _value(registry, "AM_BUS_DAYS", memo) is first


def test_year_anchor_is_one_year(registry):
    lo, hi = registry.system.epoch.days_of_year(1993)
    value = _value(registry, "1993/YEARS")
    assert value.period == 0
    assert value.window == (_lin(lo), _lin(hi))
    assert value.runs(-10_000, 10_000) == [(_lin(lo), _lin(hi))]


#: Linear days from mid-November 1992 to early April 1994 (epoch
#: Jan 1 1987): the whole of 1993 with a margin on each side.
_WINDOW = (2150, 2650)


@pytest.mark.parametrize("text", [
    "[2]/DAYS:during:WEEKS",
    "[n]/AM_BUS_DAYS:during:MONTHS",
    "flatten([1-3]/DAYS:during:WEEKS) & [1]/DAYS:during:MONTHS",
    "WEEKS:during:1993/YEARS",
])
def test_observation_matches_the_interpreter(registry, text):
    lo, hi = _WINDOW
    closed = _value(registry, text).observe(lo, hi)
    oracle = _oracle_observer(lambda window: registry.eval_expression(
        text, window=window, optimize=False))(lo, hi)
    assert _clip_runs(closed.runs, lo, hi) == \
        _clip_runs(oracle.runs, lo, hi)
    assert closed.granularity == oracle.granularity
    elements = closed.elements()
    if elements is not None:
        assert elements == [(a, b) for a, b in oracle.elements()
                            if a >= lo and b <= hi]
