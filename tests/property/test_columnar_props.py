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

Grouped order-2 results (one member lane pair plus group offsets) are
checked against a nested-list model: ``foreach`` over every registered
listop plus a user-defined and a replaced-builtin one, strict and
relaxed, labelled and unlabelled references, over abutting tilings,
overlapping and clipped groups; ``select`` with ``[k]``, ``[-k]``,
``[n]``, ranges and multi-item predicates; and every read of the
grouped form against the same value built with ``from_calendars``.
"""

import pickle

from hypothesis import example, given, settings, strategies as st

from repro.core import (
    Calendar,
    Granularity,
    Interval,
    LAST,
    LISTOPS,
    SelectionPredicate,
    caloperate,
    foreach,
    select,
)
from repro.core.interval import Listop, get_listop
from repro.lang.interpreter import clip_to_window

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



# ---------------------------------------------------------------------------
# Grouped order-2 calendars against a nested-list model
# ---------------------------------------------------------------------------

#: Every registered listop, a user-defined grouping listop and a builtin
#: name whose predicate was replaced (both without a lane kernel).
GROUP_OPS = [get_listop(name) for name in ALL_OPS] + [
    Listop("near", lambda a, b: abs(a.lo - b.lo) <= 3),
    Listop("during", lambda a, b: a.lo >= b.lo and a.hi <= b.hi + 1),
]


@st.composite
def tilings(draw):
    """Unit members tiled by adjacent references: consecutive groups
    abut in the member lanes (the DAYS:during:WEEKS shape)."""
    start = draw(st.integers(min_value=-30, max_value=10))
    units = [t for t in range(start, start + draw(
        st.integers(min_value=0, max_value=30))) if t != 0]
    refs, lo = [], start - draw(st.integers(min_value=0, max_value=3))
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        hi = lo + draw(st.integers(min_value=0, max_value=7))
        refs.append((lo, hi))
        lo = hi + 1
    return ([(t, t) for t in units],
            [(a if a < 0 else a + 1, b if b < 0 else b + 1)
             for a, b in refs])


@st.composite
def foreach_operands(draw):
    """Members and references: a tiling, or two independent shapes."""
    if draw(st.booleans()):
        return draw(tilings())
    return draw(interval_pairs()), draw(interval_pairs(min_size=1))


predicates = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=-6, max_value=-1),
        st.just(LAST),
        st.tuples(st.integers(min_value=1, max_value=4),
                  st.integers(min_value=1, max_value=4)).map(
            lambda t: (min(t), max(t))),
        st.tuples(st.integers(min_value=-6, max_value=-1),
                  st.integers(min_value=-6, max_value=-1)).map(
            lambda t: (min(t), max(t)))),
    min_size=1, max_size=3).map(lambda items: SelectionPredicate(
        tuple(items)))


def model_grouped(op, members, refs, strict, labels):
    """``(groups, labels)`` of a grouping foreach: empty groups dropped."""
    out, kept = [], []
    for k, ref in enumerate(refs):
        group = model_group(op, members, ref, strict)
        if group:
            out.append(group)
            kept.append(labels[k] if labels is not None else None)
    return out, (tuple(kept) if labels is not None else None)


def model_positions(items, length):
    """1-based / negative / ``n`` / range items to sorted 0-based picks."""
    chosen = set()
    for item in items:
        ks = range(item[0], item[1] + 1) if isinstance(item, tuple) else \
            [length if item is LAST else item]
        for k in ks:
            pos = k - 1 if k > 0 else length + k
            if 0 <= pos < length:
                chosen.add(pos)
    return sorted(chosen)


def model_select(groups, pred):
    picked = [[g[p] for p in model_positions(pred.items, len(g))]
              for g in groups]
    if pred.is_singleton():
        return [p[0] for p in picked if p]
    return [p for p in picked if p]


def twin(grouped):
    """The same value built through ``from_calendars``."""
    subs = [Calendar.from_intervals(sub.to_pairs(), sub.granularity)
            for sub in grouped.elements]
    return Calendar.from_calendars(subs, grouped.granularity,
                                   grouped.labels)


def check_reads(grouped, groups, granularity):
    """Every read of a grouped calendar against the model groups."""
    leaves = [iv for g in groups for iv in g]
    assert grouped.group_lanes is not None
    assert grouped.order == 2 and len(grouped) == len(groups)
    assert grouped.to_pairs() == tuple(_pairs(g) for g in groups)
    assert str(grouped) == "{" + ",".join(
        "{" + ",".join(f"({iv.lo},{iv.hi})" for iv in g) + "}"
        for g in groups) + "}"
    assert grouped.leaf_count() == len(leaves)
    assert list(grouped.iter_pairs()) == list(_pairs(leaves))
    assert grouped.flatten().to_pairs() == _pairs(leaves)
    assert grouped.flatten().granularity == granularity
    assert grouped.span() == (Interval(min(iv.lo for iv in leaves),
                                       max(iv.hi for iv in leaves))
                              if leaves else None)
    assert all(grouped.contains_point(t) ==
               any(iv.lo <= t <= iv.hi for iv in leaves)
               for t in range(-61, 62) if t != 0)
    if groups:
        assert grouped[-1].to_pairs() == _pairs(groups[-1])
    subs = grouped.elements
    assert [sub.to_pairs() for sub in subs] == [_pairs(g) for g in groups]
    assert all(sub.granularity == granularity for sub in subs)
    twin_cal = twin(grouped)
    assert twin_cal.group_lanes is None
    assert grouped == twin_cal and twin_cal == grouped
    assert hash(grouped) == hash(twin_cal)
    assert str(twin_cal) == str(grouped)
    assert twin_cal.to_pairs() == grouped.to_pairs()
    restored = pickle.loads(pickle.dumps(grouped))
    assert restored == grouped and restored.labels == grouped.labels
    assert restored.to_pairs() == grouped.to_pairs()


class TestGroupedParity:
    @settings(max_examples=150)
    @given(foreach_operands(), st.sampled_from(GROUP_OPS), st.booleans(),
           st.booleans())
    # Disjoint members poking out of both ends of sorted references: the
    # strict overlaps clip patches each group's boundary members.
    @example(([(1, 3), (5, 8), (10, 12)], [(2, 6), (7, 11)]),
             get_listop("overlaps"), True, False)
    @example(([(-9, -7), (-5, -2), (2, 4)], [(-8, -3), (-1, 3)]),
             get_listop("overlaps"), True, True)
    def test_foreach_groups(self, operands, op, strict, labelled):
        pairs, ref_pairs = operands
        labels = [f"r{k}" for k in range(len(ref_pairs))] if labelled \
            else None
        cal = Calendar.from_intervals(pairs, Granularity.DAYS)
        refs = Calendar.from_intervals(ref_pairs, labels=labels)
        result = foreach(op, cal, refs, strict=strict)
        if op.shape == "filtering":
            assert result.order == 1
            return
        groups, want_labels = model_grouped(op, _ivs(pairs), _ivs(ref_pairs),
                                            strict, labels)
        assert result.labels == want_labels
        assert result.granularity == Granularity.DAYS
        check_reads(result, groups, Granularity.DAYS)

    @settings(max_examples=150)
    @given(foreach_operands(), st.sampled_from(["during", "overlaps"]),
           st.booleans(), predicates)
    def test_select_groups(self, operands, op, strict, pred):
        pairs, ref_pairs = operands
        cal = Calendar.from_intervals(pairs, Granularity.DAYS)
        refs = Calendar.from_intervals(
            ref_pairs, labels=list(range(len(ref_pairs))))
        grouped = foreach(op, cal, refs, strict=strict)
        groups, _ = model_grouped(get_listop(op), _ivs(pairs),
                                  _ivs(ref_pairs), strict, None)
        result = select(grouped, pred)
        expected = model_select(groups, pred)
        assert result.labels is None
        assert result.granularity == Granularity.DAYS
        assert result == select(twin(grouped), pred)
        if pred.is_singleton():
            assert result.order == 1
            assert result.to_pairs() == _pairs(expected)
        else:
            check_reads(result, expected, Granularity.DAYS)

    @settings(max_examples=60)
    @given(foreach_operands())
    def test_relabel_and_regranulate(self, operands):
        pairs, ref_pairs = operands
        grouped = foreach("overlaps", Calendar.from_intervals(
            pairs, Granularity.DAYS), Calendar.from_intervals(ref_pairs))
        twin_cal = twin(grouped)
        labels = list(range(len(grouped)))
        for a, b in ((grouped.with_labels(labels),
                      twin_cal.with_labels(labels)),
                     (grouped.with_granularity(Granularity.WEEKS),
                      twin_cal.with_granularity(Granularity.WEEKS))):
            assert a == b and a.labels == b.labels
            assert a.granularity == b.granularity
            assert [sub.granularity for sub in a.elements] == \
                [sub.granularity for sub in b.elements]
            assert a.to_pairs() == b.to_pairs() and str(a) == str(b)
        # The outer granularity is part of the value.
        assert grouped.with_granularity(Granularity.WEEKS) != grouped

    @settings(max_examples=100)
    @given(foreach_operands(), st.sampled_from(["during", "overlaps"]),
           st.booleans(), axis_point, axis_point)
    def test_window_clip(self, operands, op, strict, a, b):
        # Whole groups whose span overlaps the window survive, labels
        # alongside: the lanes path against the per-sub-calendar path of
        # the from_calendars twin.
        pairs, ref_pairs = operands
        window = (min(a, b), max(a, b))
        grouped = foreach(op, Calendar.from_intervals(pairs),
                          Calendar.from_intervals(
                              ref_pairs, labels=list(range(len(ref_pairs)))),
                          strict=strict)
        clipped = clip_to_window(grouped, window)
        expected = clip_to_window(twin(grouped), window)
        assert clipped == expected
        assert clipped.to_pairs() == expected.to_pairs()
        assert clipped.labels == expected.labels

    def test_grouping_is_part_of_the_value(self):
        # Same members, different group boundaries: not equal.
        days = Calendar.from_intervals([(t, t) for t in range(1, 15)])
        weeks = foreach("during", days,
                        Calendar.from_intervals([(1, 7), (8, 14)]))
        fortnight = foreach("during", days,
                            Calendar.from_intervals([(1, 14)]))
        assert weeks.flatten() == fortnight.flatten()
        assert weeks != fortnight and weeks != twin(fortnight)
        assert weeks == twin(weeks) and hash(weeks) == hash(twin(weeks))
