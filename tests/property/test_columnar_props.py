"""Columnar kernels against a brute-force model.

Every order-1 calendar is column-backed and the hot operators run as
lane sweeps (:mod:`repro.core.columnar`).  Each property here computes
the same answer with a model kept in this file — an unwindowed full
scan over plain ``Interval`` values using the ``Interval`` methods
(``intersect``, ``subtract``, ``union_hull``) plus a sort-and-merge — and
asserts the kernels agree for every registered listop (strict and
relaxed, interval and calendar references), the set operations,
selection and ``caloperate``.  Operands come unsorted, lo-sorted with
overlaps (the non-exact ``group_range`` path, unsorted hi lanes) and as
disjoint tilings (the exact lane ranges).  A final property checks that
every order-1 result carries columns.  Deterministic edge cases — empty
calendars, adjacent and touching intervals — are pinned at the bottom.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core import (
    Calendar,
    Interval,
    LAST,
    LISTOPS,
    SelectionPredicate,
    caloperate,
    foreach,
    select,
)
from repro.core.interval import get_listop

ALL_OPS = sorted(LISTOPS)

axis_point = st.integers(min_value=-30, max_value=30).filter(
    lambda t: t != 0)


@st.composite
def interval_pairs(draw, min_size=0, max_size=10):
    """Endpoint pairs in one of three shapes: as drawn (unsorted,
    overlapping), lo-sorted (overlapping, hi lane often unsorted), or a
    disjoint ascending tiling."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    shape = draw(st.sampled_from(["unsorted", "lo_sorted", "disjoint"]))
    if shape == "disjoint":
        pairs, lo = [], draw(st.integers(min_value=-60, max_value=-1))
        for _ in range(n):
            hi = lo + draw(st.integers(min_value=0, max_value=6))
            pairs.append((lo, hi))
            lo = hi + draw(st.integers(min_value=1, max_value=4))
        # Shift off the (nonexistent) tick 0 by the zero-skipping rule.
        return [(lo if lo < 0 else lo + 1, hi if hi < 0 else hi + 1)
                for lo, hi in pairs]
    pairs = []
    for _ in range(n):
        a = draw(axis_point)
        b = draw(axis_point)
        pairs.append((min(a, b), max(a, b)))
    if shape == "lo_sorted":
        pairs.sort()
    return pairs


@st.composite
def intervals(draw):
    a = draw(axis_point)
    b = draw(axis_point)
    return Interval(min(a, b), max(a, b))


# ---------------------------------------------------------------------------
# The model: full scans over Interval values, sort-and-merge
# ---------------------------------------------------------------------------

def _ivs(pairs):
    return [Interval(lo, hi) for lo, hi in pairs]


def _pairs(ivs):
    return tuple((iv.lo, iv.hi) for iv in ivs)


def model_merge(ivs):
    """Sort by ``(lo, hi)`` and merge genuine overlaps (adjacency kept)."""
    merged = []
    for iv in sorted(ivs, key=lambda i: (i.lo, i.hi)):
        if merged and merged[-1].overlaps(iv):
            merged[-1] = merged[-1].union_hull(iv)
        else:
            merged.append(iv)
    return merged


def model_group(op, members, ref, strict):
    out = []
    for iv in members:
        if not op(iv, ref):
            continue
        if strict and op.clips:
            clipped = iv.intersect(ref)
            if clipped is not None:
                out.append(clipped)
        else:
            out.append(iv)
    return out


def model_foreach(op, members, refs, strict):
    """Grouping: the non-empty groups; filtering: one flat list."""
    if op.shape == "filtering":
        out = []
        for iv in members:
            matches = [r for r in refs if op(iv, r)]
            if not matches:
                continue
            if strict and op.clips:
                out.extend(c for c in (iv.intersect(r) for r in matches)
                           if c is not None)
            else:
                out.append(iv)
        return out
    groups = [model_group(op, members, r, strict) for r in refs]
    return [g for g in groups if g]


def model_union(a, b):
    return model_merge(a + b)


def model_intersection(a, b):
    return model_merge([c for x in a for y in b
                        for c in [x.intersect(y)] if c is not None])


def model_difference(a, b):
    out = []
    for x in a:
        pieces = [x]
        for cut in b:
            pieces = [p for piece in pieces for p in piece.subtract(cut)]
        out.extend(pieces)
    return model_merge(out)


def model_caloperate(members, pattern):
    out, i, k = [], 0, 0
    while i < len(members):
        chunk = members[i:i + pattern[k % len(pattern)]]
        out.append(Interval(min(iv.lo for iv in chunk),
                            max(iv.hi for iv in chunk)))
        i += len(chunk)
        k += 1
    return out


def all_order1_have_columns(cal):
    if cal.order == 1:
        return cal.columns is not None
    return cal.columns is None and all(
        all_order1_have_columns(sub) for sub in cal.elements)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

class TestForeachParity:
    @settings(max_examples=80)
    @given(interval_pairs(), intervals(), st.sampled_from(ALL_OPS),
           st.booleans())
    def test_interval_reference(self, pairs, ref, op, strict):
        result = foreach(op, Calendar.from_intervals(pairs), ref,
                         strict=strict)
        expected = model_group(get_listop(op), _ivs(pairs), ref, strict)
        assert result.to_pairs() == _pairs(expected)

    @settings(max_examples=80)
    @given(interval_pairs(), interval_pairs(min_size=1),
           st.sampled_from(ALL_OPS), st.booleans())
    def test_calendar_reference_grouping(self, pairs, ref_pairs, op,
                                         strict):
        listop = get_listop(op)
        result = foreach(op, Calendar.from_intervals(pairs),
                         Calendar.from_intervals(ref_pairs), strict=strict)
        expected = model_foreach(listop, _ivs(pairs), _ivs(ref_pairs),
                                 strict)
        if listop.shape == "filtering":
            assert result.to_pairs() == _pairs(expected)
        else:
            assert result.to_pairs() == tuple(_pairs(g) for g in expected)

    @settings(max_examples=60)
    @given(interval_pairs(), interval_pairs(min_size=1), st.booleans())
    def test_filtering_parity(self, pairs, ref_pairs, strict):
        # "intersects" is the one filtering-shaped builtin: the result
        # stays order-1 and members are kept (or clipped) when they
        # relate to *any* reference.
        kept = foreach("intersects", Calendar.from_intervals(pairs),
                       Calendar.from_intervals(ref_pairs), strict=strict)
        expected = model_foreach(get_listop("intersects"), _ivs(pairs),
                                 _ivs(ref_pairs), strict)
        assert kept.to_pairs() == _pairs(expected)


class TestSetOperationParity:
    @settings(max_examples=150)
    @given(interval_pairs(), interval_pairs(),
           st.sampled_from(["union", "intersection", "difference"]))
    # A nested operand: (2, 3) ends before the probe (5, 6) starts, yet
    # sits behind (1, 10) in lo order (the unsorted-hi sweep branch).
    @example([(5, 6)], [(1, 10), (2, 3)], "intersection")
    @example([(5, 6)], [(1, 10), (2, 3)], "difference")
    def test_matches_model(self, a_pairs, b_pairs, op_name):
        a = Calendar.from_intervals(a_pairs)
        b = Calendar.from_intervals(b_pairs)
        model = {"union": model_union,
                 "intersection": model_intersection,
                 "difference": model_difference}[op_name]
        expected = model(_ivs(a_pairs), _ivs(b_pairs))
        assert getattr(a, op_name)(b).to_pairs() == _pairs(expected)


class TestSelectionParity:
    @settings(max_examples=60)
    @given(interval_pairs(min_size=1), interval_pairs(min_size=1))
    def test_select_parity(self, pairs, ref_pairs):
        grouped = foreach("during", Calendar.from_intervals(pairs),
                          Calendar.from_intervals(ref_pairs))
        groups = model_foreach(get_listop("during"), _ivs(pairs),
                               _ivs(ref_pairs), True)
        assert select(grouped, SelectionPredicate.of(1)).to_pairs() == \
            _pairs(g[0] for g in groups)
        assert select(grouped, SelectionPredicate.of(LAST)).to_pairs() \
            == _pairs(g[-1] for g in groups)
        assert select(grouped, SelectionPredicate.of(1, 3)).to_pairs() \
            == tuple(_pairs(g[0:3:2]) for g in groups)


class TestCaloperateParity:
    @settings(max_examples=60)
    @given(interval_pairs(min_size=1),
           st.lists(st.integers(min_value=1, max_value=4),
                    min_size=1, max_size=3))
    def test_caloperate_parity(self, pairs, pattern):
        result = caloperate(Calendar.from_intervals(pairs), tuple(pattern))
        expected = model_caloperate(_ivs(pairs), pattern)
        assert result.to_pairs() == _pairs(expected)


class TestSingleRepresentation:
    """Every order-1 result of the algebra is column-backed."""

    @settings(max_examples=60)
    @given(interval_pairs(), interval_pairs(min_size=1), intervals(),
           st.sampled_from(ALL_OPS), st.booleans(),
           st.lists(st.integers(min_value=1, max_value=4),
                    min_size=1, max_size=3))
    def test_results_carry_columns(self, pairs, ref_pairs, ref, op,
                                   strict, pattern):
        cal = Calendar.from_intervals(pairs)
        refs = Calendar.from_intervals(ref_pairs)
        grouped = foreach(op, cal, refs, strict=strict)
        results = [
            foreach(op, cal, ref, strict=strict),
            grouped,
            foreach(op, cal, Calendar.from_calendars([refs]),
                    strict=strict),
            select(grouped, SelectionPredicate.of(1)),
            select(grouped, SelectionPredicate.of(1, LAST)),
            select(cal, SelectionPredicate.of((1, 2))),
            cal + refs, cal - refs, cal & refs,
            cal.shifted(3), grouped.flatten(),
        ]
        if pairs:
            results.append(caloperate(cal, tuple(pattern)))
        for result in results:
            assert all_order1_have_columns(result)


class TestEdgeCases:
    """Pinned empty / adjacent / touching behaviours."""

    def test_empty_calendar_round_trip(self):
        empty = Calendar.from_intervals([])
        days = Calendar.from_intervals([(1, 1), (2, 2)])
        assert (empty & days).to_pairs() == ()
        assert (empty - days).to_pairs() == ()
        assert (days - empty).to_pairs() == ((1, 1), (2, 2))
        assert (empty + days).to_pairs() == ((1, 1), (2, 2))
        assert foreach("during", empty, Interval(1, 5)).to_pairs() == ()

    def test_adjacent_intervals_stay_separate(self):
        # Adjacent (touching endpoints differ by one tick) intervals
        # never merge; only genuine overlaps do.
        cal = Calendar.from_intervals([(1, 2), (3, 4)])
        other = Calendar.from_intervals([(1, 4)])
        assert (cal + other).to_pairs() == ((1, 4),)
        assert (cal & other).to_pairs() == ((1, 2), (3, 4))
        assert (cal + cal).to_pairs() == ((1, 2), (3, 4))

    def test_touching_intervals(self):
        # Sharing an endpoint is an overlap of exactly one tick.
        cal = Calendar.from_intervals([(1, 5), (5, 9)])
        probe = Calendar.from_intervals([(5, 5)])
        assert (cal & probe).to_pairs() == ((5, 5),)
        assert (cal - probe).to_pairs() == ((1, 4), (6, 9))

    def test_zero_skipping_difference(self):
        # Cutting across the (nonexistent) zero tick: the remainder
        # endpoints must skip 0.
        cal = Calendar.from_intervals([(-3, 3)])
        cut = Calendar.from_intervals([(-1, 1)])
        assert (cal - cut).to_pairs() == ((-3, -2), (2, 3))

