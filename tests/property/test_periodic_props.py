"""Compiled periodic sets agree with the interpreter oracle.

Two strategies:

* ``compilable_expressions`` draws the closed form's shapes — weekly,
  monthly and yearly selections, business-day selections, ``&`` with a
  year, ``- HOLIDAYS``, unions — so every draw exercises the compiled
  arithmetic: ``contains`` / ``next_occurrence`` / ``iter_from`` are
  checked point-for-point against the membership set the eager
  interpreter produces, and the closed-form compile is checked field
  for field against the oracle compile (the interpreter read over the
  same windows) at both budget tiers;
* the broad ``cel_expressions`` fuzz (same grammar as
  ``test_lang_props``) checks the *clean fallback* property: for any
  parseable expression the compiler either returns a parity-correct
  set or ``None`` — it never raises and never returns a wrong answer.

``runs_between`` (the runs a valid-time range scan bisects) is checked
against ``contains`` tick by tick, on compiled and on synthetic sets.
"""

from __future__ import annotations

import os
import sys
from bisect import bisect_left, bisect_right
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.catalog import (
    CalendarRegistry,
    install_standard_calendars,
    install_us_holidays,
)
from repro.core import CalendarSystem
from repro.core.matcache import MaterialisationCache
from repro.core.periodic import (
    GREGORIAN_PERIOD_DAYS,
    PeriodicSet,
    _lin,
    _unlin,
    compile_expression_oracle,
    compile_expression_periodic,
)
from repro.lang.interpreter import Interpreter

#: One registry for the whole module: compiles and oracle evaluations
#: are memoised in its cache, so repeated draws of the same expression
#: cost a dict lookup instead of a recompile.
_REGISTRY = None


def _registry() -> CalendarRegistry:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                     default_horizon_years=25,
                                     matcache=MaterialisationCache())
        install_standard_calendars(_REGISTRY)
        install_us_holidays(_REGISTRY, 1987, 2006)
    return _REGISTRY


# Oracle window: wide enough to hold every patch the strategies can
# produce, probed only in its interior (one max-element-span margin on
# each side) so keep-whole-overlap clipping cannot disturb parity.
_ORACLE_WINDOW = ("Jan 1 1990", "Dec 31 1996")
_INTERIOR_MARGIN = 400


#: Single-day selectors yield order-1 groups and may be used bare;
#: multi-day selectors build order-2 calendars and must be flattened
#: before a set operator sees them (`&`/`+`/`-` need order-1 operands).
single_selectors = st.sampled_from(
    ["[1]/", "[2]/", "[3]/", "[4]/", "[5]/", "[6]/", "[7]/",
     "[n]/", "[-1]/"])
multi_selectors = st.sampled_from(["[1-3]/", "[2;5]/", "[1-5]/"])


@st.composite
def weekly_operand(draw):
    if draw(st.booleans()):
        return f"flatten({draw(multi_selectors)}DAYS:during:WEEKS)"
    base = f"{draw(single_selectors)}DAYS:during:WEEKS"
    if draw(st.booleans()):
        return f"flatten({base})"
    return base


@st.composite
def monthly_operand(draw):
    """A Gregorian-period selection from MONTHS or YEARS."""
    tiling = draw(st.sampled_from(["MONTHS", "YEARS"]))
    if draw(st.booleans()):
        index = draw(st.sampled_from(["1-3", "2;5", "27-31"]))
        return f"flatten([{index}]/DAYS:during:{tiling})"
    index = draw(st.sampled_from(
        ["1", "2", "15", "29", "31", "n", "-1", "-3"]
        + (["60", "366"] if tiling == "YEARS" else [])))
    return f"[{index}]/DAYS:during:{tiling}"


@st.composite
def business_operand(draw):
    index = draw(st.sampled_from(["1", "2", "5", "n", "-1"]))
    tiling = draw(st.sampled_from(["WEEKS", "MONTHS"]))
    return f"[{index}]/AM_BUS_DAYS:during:{tiling}"


def operands():
    return st.one_of(weekly_operand(), monthly_operand(),
                     business_operand())


@st.composite
def compilable_expressions(draw):
    base = draw(operands())
    form = draw(st.sampled_from(["plain", "year", "union", "minus",
                                 "holidays"]))
    if form == "year":
        year = draw(st.integers(min_value=1988, max_value=2005))
        return f"({base}) & {year}/YEARS"
    if form == "union":
        return f"({base}) + ({draw(operands())})"
    if form == "minus":
        return f"({base}) - (({draw(weekly_operand())}) & 1993/YEARS)"
    if form == "holidays":
        return f"({base}) - HOLIDAYS"
    return base


def _oracle(registry, text, window):
    """The interpreter's evaluation of ``text`` over ``window``.

    Counts the interpreter's entry calls, so a parity check can never
    silently compare the compiled set with itself.
    """
    calls = []
    evaluate = Interpreter.evaluate

    def counted(interpreter, node):
        calls.append(node)
        return evaluate(interpreter, node)

    with mock.patch.object(Interpreter, "evaluate", counted):
        cal = registry.eval_expression(text, window=window, optimize=False)
    assert calls, f"the oracle for {text!r} bypassed the interpreter"
    return cal


def _oracle_runs(registry, text):
    """Sorted covered runs of the eager evaluation over the window."""
    flat = _oracle(registry, text, _ORACLE_WINDOW).flatten()
    return [(iv.lo, iv.hi) for iv in flat.elements]


def _covered(runs, tick) -> bool:
    index = bisect_right(runs, (tick, float("inf"))) - 1
    return index >= 0 and runs[index][1] >= tick


def _next_after(runs, tick):
    """The smallest covered axis tick strictly after ``tick`` (zero-skip)."""
    start = tick + 1
    if start == 0:
        start = 1
    index = bisect_left([hi for _, hi in runs], start)
    if index == len(runs):
        return None
    lo, _ = runs[index]
    nxt = max(lo, start)
    return 1 if nxt == 0 else nxt


def _interior(registry):
    lo = registry.system.day_of(_ORACLE_WINDOW[0]) + _INTERIOR_MARGIN
    hi = registry.system.day_of(_ORACLE_WINDOW[1]) - _INTERIOR_MARGIN
    return lo, hi


@settings(max_examples=60, deadline=None)
@given(compilable_expressions(), st.integers(min_value=0, max_value=1500))
def test_contains_and_next_match_oracle(text, offset):
    registry = _registry()
    pset = registry.periodic_set(text)
    assert pset is not None, f"{text!r} unexpectedly fell back"
    runs = _oracle_runs(registry, text)
    lo, hi = _interior(registry)
    tick = lo + offset
    assert tick < hi
    assert pset.contains(tick) == _covered(runs, tick), \
        f"contains({tick}) disagrees for {text!r}"
    expected = _next_after(runs, tick)
    got = pset.next_occurrence(tick)
    if expected is not None and expected <= hi:
        assert got == expected, \
            f"next_occurrence({tick}) disagrees for {text!r}"


@settings(max_examples=40, deadline=None)
@given(compilable_expressions(), st.integers(min_value=0, max_value=1500))
def test_iter_from_matches_oracle_prefix(text, offset):
    registry = _registry()
    pset = registry.periodic_set(text)
    assert pset is not None
    runs = _oracle_runs(registry, text)
    lo, hi = _interior(registry)
    tick = lo + offset

    expected, cursor = [], tick - 1
    while len(expected) < 8:
        cursor = _next_after(runs, cursor)
        if cursor is None or cursor > hi:
            break
        expected.append(cursor)
    got = []
    for occurrence in pset.iter_from(tick):
        if occurrence > hi or len(got) == len(expected):
            break
        got.append(occurrence)
    assert got == expected, f"iter_from({tick}) disagrees for {text!r}"


# -- closed form against the oracle compile ------------------------------------

#: Every field of a compiled set; the closed form must reproduce each.
_FIELDS = ("period", "offsets", "patch_window", "patch", "elements",
           "patch_elements", "granularity", "exact_elements")

#: (text, budget) -> (oracle set, oracle fallback reasons); a full-tier
#: oracle compile of a Gregorian-period shape evaluates 400 years.
_ORACLE_COMPILES: dict = {}


def _oracle_compile(registry, text, budget):
    key = (text, budget)
    if key not in _ORACLE_COMPILES:
        parsed, factored = registry._parsed_asts(text, None)
        reasons = []
        calls = []
        evaluate = Interpreter.evaluate

        def counted(interpreter, node):
            calls.append(node)
            return evaluate(interpreter, node)

        with mock.patch.object(Interpreter, "evaluate", counted):
            pset = compile_expression_oracle(
                factored, system=registry.system,
                resolver=registry.resolver,
                evaluate=lambda win: registry.eval_expression(
                    text, window=win, optimize=False),
                source=text, max_eval_days=budget, reason_out=reasons)
        assert calls or pset is None, \
            f"the oracle compile of {text!r} bypassed the interpreter"
        _ORACLE_COMPILES[key] = (pset, reasons)
    return _ORACLE_COMPILES[key]


def _closed_compile(registry, text, budget):
    parsed, factored = registry._parsed_asts(text, None)
    reasons, paths = [], []

    def refuse(window):
        raise AssertionError(f"{text!r} read the oracle")

    pset = compile_expression_periodic(
        factored, system=registry.system, resolver=registry.resolver,
        evaluate=refuse, source=text, max_eval_days=budget,
        reason_out=reasons, raw=parsed, memo=registry._closed_memo(),
        path_out=paths)
    return pset, reasons, paths


@settings(max_examples=60, deadline=None)
@given(compilable_expressions())
def test_closed_form_equals_the_oracle_compile(text):
    """Both tiers: the closed form compiles (or falls back, for the same
    reason) exactly as the oracle compile does, every field equal."""
    registry = _registry()
    for budget in (registry._PERIODIC_FULL_DAYS,
                   registry._PERIODIC_SMALL_DAYS):
        closed, reasons, paths = _closed_compile(registry, text, budget)
        assert paths == [("closed", None)], paths
        oracle, oracle_reasons = _oracle_compile(registry, text, budget)
        assert reasons == oracle_reasons, text
        assert (closed is None) == (oracle is None), text
        if closed is not None:
            for field in _FIELDS:
                assert getattr(closed, field) == getattr(oracle, field), \
                    f"{field} differs for {text!r} at budget {budget}"


def _dbcron_texts() -> list[str]:
    """The dbcron_month set-up expressions (perfbench/wl_dbcron.py)."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "perfbench"))
    try:
        import wl_dbcron
    finally:
        sys.path.pop(0)
    return [text for _, exprs in wl_dbcron.MIX for text, _ in exprs]


def test_dbcron_setup_compiles_never_run_the_interpreter():
    """The 25 compiled dbcron_month set-up texts compile in closed form:
    no interpreter evaluation and no materialisation request."""
    from repro import Session
    from repro.obs.instrument import Instrumentation

    registry = Session("Jan 1 1987", holiday_years=(1987, 2016),
                       instrumentation=Instrumentation(),
                       matcache=MaterialisationCache()).registry
    requests = registry.matcache.stats()["requests"]
    calls = []
    evaluate = Interpreter.evaluate

    def counted(interpreter, node):
        calls.append(node)
        return evaluate(interpreter, node)

    with mock.patch.object(Interpreter, "evaluate", counted):
        compiled = [text for text in _dbcron_texts()
                    if registry.periodic_set(text) is not None]
    assert len(compiled) == 25
    assert calls == []
    assert registry.matcache.stats()["requests"] == requests
    paths = registry.instrumentation.metrics.counter(
        "periodic.compile", labels=("path",))
    assert paths.labels("closed").value == 25
    assert paths.labels("oracle").value == 0


# -- anchor independence --------------------------------------------------------

#: Gregorian-period shapes, a small pool because each full-tier compile
#: evaluates 400 years.  The finite ones anchor off any multiple of the
#: period, and the LDOM union has a run (Dec 31, Jan 1) that wraps the
#: period boundary.
gregorian_expressions = st.sampled_from([
    "LDOM",
    "[1]/DAYS:during:MONTHS",
    "[1]/AM_BUS_DAYS:during:MONTHS",
    "(([1]/DAYS:during:MONTHS) + LDOM) - (([3]/DAYS:during:WEEKS) "
    "& 1993/YEARS)",
    "flatten([1-3]/DAYS:during:MONTHS) + (([5]/DAYS:during:WEEKS) "
    "& 1994/YEARS)",
])


def _assert_canonical(offsets, period):
    """Sorted residue runs inside [0, P), merged wherever adjacent; the
    only adjacency left is a run wrapping the period, split at 0/P-1."""
    assert list(offsets) == sorted(offsets)
    assert all(0 <= lo <= hi < period for lo, hi in offsets)
    for (_, hi), (lo, _) in zip(offsets, offsets[1:]):
        assert lo > hi + 1


@settings(max_examples=40, deadline=None)
@given(st.one_of(compilable_expressions(), gregorian_expressions))
def test_compiled_set_is_anchor_independent(text):
    """Canonical offsets, and membership that matches the eager result
    both in the present era and one Gregorian period (400 years) on."""
    registry = _registry()
    pset = registry.periodic_set(text)
    assert pset is not None, f"{text!r} unexpectedly fell back"
    if pset.period:
        _assert_canonical(pset.offsets, pset.period)
    lo, hi = _interior(registry)
    for shift in (0, GREGORIAN_PERIOD_DAYS):
        window = tuple(registry.system.day_of(day) + shift
                       for day in _ORACLE_WINDOW)
        cal = _oracle(registry, text, window)
        runs = [(iv.lo, iv.hi) for iv in cal.flatten().elements]
        for tick in range(lo + shift, hi + shift + 1):
            assert pset.contains(tick) == _covered(runs, tick), \
                f"contains({tick}) disagrees for {text!r}"


# -- clean fallback over the broad expression grammar --------------------------

cel_ops = st.sampled_from(["during", "overlaps", "meets", "<", "<="])
cel_names = st.sampled_from(["DAYS", "WEEKS", "MONTHS", "YEARS",
                             "HOLIDAYS", "AM_BUS_DAYS", "Jan-1993"])
cel_selectors = st.sampled_from(["", "[1]/", "[n]/", "[-3]/", "[2-4]/",
                                 "[1;3]/"])


@st.composite
def cel_expressions(draw):
    depth = draw(st.integers(min_value=1, max_value=4))
    parts = [f"{draw(cel_selectors)}{draw(cel_names)}"
             for _ in range(depth)]
    text = parts[0]
    for part in parts[1:]:
        sep = draw(st.sampled_from([":", "."]))
        op = draw(cel_ops)
        if sep == "." and op in ("<", "<="):
            op = "overlaps"
        text += f"{sep}{op}{sep}{part}"
    suffix = draw(st.sampled_from(["", " + HOLIDAYS", " - HOLIDAYS"]))
    return text + suffix


@settings(max_examples=80, deadline=None)
@given(cel_expressions(), st.integers(min_value=0, max_value=1500))
def test_fallback_is_clean_or_parity_holds(text, offset):
    """periodic_set never raises; when it compiles, membership agrees."""
    registry = _registry()
    try:
        pset = registry.periodic_set(text, full=False)
    except Exception as exc:  # noqa: BLE001 — the property under test
        raise AssertionError(
            f"periodic_set({text!r}) raised {exc!r}") from exc
    if pset is None:
        return  # clean fallback: the eager pipeline stays authoritative
    runs = _oracle_runs(registry, text)
    lo, hi = _interior(registry)
    tick = lo + offset
    assert pset.contains(tick) == _covered(runs, tick), \
        f"compiled membership disagrees for {text!r} at {tick}"


def _assert_runs_match_contains(pset, lo: int, hi: int) -> None:
    """``runs_between`` covers exactly the nonzero ticks ``contains``
    accepts in ``[lo, hi]``, as ascending, disjoint runs."""
    runs = pset.runs_between(lo, hi)
    covered = set()
    for a, b in runs:
        assert lo <= a <= b <= hi and not a <= 0 <= b, runs
        covered.update(range(a, b + 1))
    assert all(b < a for (_, b), (a, _) in zip(runs, runs[1:])), runs
    assert covered == {t for t in range(lo, hi + 1)
                       if t != 0 and pset.contains(t)}


@settings(max_examples=40, deadline=None)
@given(compilable_expressions(), st.integers(min_value=-400,
                                             max_value=3000),
       st.integers(min_value=-1, max_value=800))
def test_runs_between_matches_contains(text, lo, width):
    pset = _registry().periodic_set(text)
    assert pset is not None, f"{text!r} unexpectedly fell back"
    _assert_runs_match_contains(pset, lo, lo + width)


@st.composite
def _runs_in(draw, lo: int, hi: int):
    """Sorted, disjoint, non-adjacent inclusive runs inside [lo, hi]."""
    runs, at = [], lo
    while at <= hi and draw(st.booleans()):
        a = at + draw(st.integers(0, 3))
        b = min(a + draw(st.integers(0, 3)), hi)
        if a > hi:
            break
        runs.append((a, b))
        at = b + 2
    return tuple(runs)


@st.composite
def synthetic_sets(draw):
    """Periodic parts with and without a patch window around 0."""
    period = draw(st.integers(0, 12))
    offsets = draw(_runs_in(0, period - 1)) if period else ()
    patch_window, patch = None, ()
    if draw(st.booleans()):
        start = draw(st.integers(-20, 20))
        patch_window = (start, start + draw(st.integers(0, 15)))
        patch = draw(_runs_in(*patch_window))
    return PeriodicSet(period, offsets, patch_window, patch)


@settings(max_examples=200, deadline=None)
@given(synthetic_sets(), st.integers(-40, 40), st.integers(-3, 60))
def test_runs_between_matches_contains_synthetic(pset, lo, width):
    _assert_runs_match_contains(pset, lo, lo + width)


def _expand_by_filter(pset, window) -> tuple:
    """``expand``'s pairs by testing every element of every block the
    window can reach, then every patch element (the unbisected form)."""
    lo, hi = _lin(window[0]), _lin(window[1])
    out = []
    if pset.period and pset.elements:
        span = max(b - a for a, b in pset.elements)
        for block in range((lo - span - pset.period) // pset.period,
                           hi // pset.period + 1):
            base = block * pset.period
            out += [(base + a, base + b) for a, b in pset.elements
                    if base + b >= lo and base + a <= hi]
    out += [(a, b) for a, b in pset.patch_elements if b >= lo and a <= hi]
    return tuple((_unlin(a), _unlin(b)) for a, b in out)


@st.composite
def element_sets(draw):
    """Periodic element lists (sorted starts; spans up to two periods,
    so elements cross block boundaries) with or without patch elements
    in a patch window around 0."""
    period = draw(st.integers(1, 30))
    starts = sorted(draw(st.lists(st.integers(0, period - 1),
                                  max_size=6)))
    elements = tuple((a, a + draw(st.integers(0, 2 * period)))
                     for a in starts)
    patch_window, patch_elements = None, ()
    if draw(st.booleans()):
        start = draw(st.integers(-60, 60))
        patch_window = (start, start + draw(st.integers(0, 40)))
        patch_elements = tuple(draw(st.lists(
            st.tuples(st.integers(*patch_window), st.integers(0, 5)).map(
                lambda p: (p[0], p[0] + p[1])), max_size=5)))
    return PeriodicSet(period, elements=elements, patch_window=patch_window,
                       patch_elements=patch_elements, exact_elements=True)


def _window(lo: int, width: int) -> tuple[int, int]:
    lo = lo or 1
    hi = lo + width
    return lo, hi if hi != 0 else 1


@settings(max_examples=300, deadline=None)
@given(element_sets(), st.integers(-150, 150), st.integers(0, 120))
def test_expand_equals_the_per_element_filter(pset, lo, width):
    window = _window(lo, width)
    if pset.patch_window is not None and lo % 2:
        # Straddle an edge of the patch window.
        edge = pset.patch_window[lo % 4 == 1]
        window = _window(edge - width // 2, width)
    assert pset.expand(window).to_pairs() == _expand_by_filter(pset,
                                                               window)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["[1]/DAYS:during:MONTHS", "[n]/DAYS:during:MONTHS",
                        "[2]/DAYS:during:WEEKS",
                        "DAYS:during:[1]/MONTHS:during:1993/YEARS"]),
       st.integers(-160_000, 160_000), st.integers(0, 12_000))
def test_expand_of_compiled_sets_equals_the_per_element_filter(text, lo,
                                                                width):
    pset = _registry().periodic_set(text)
    assert pset is not None and pset.exact_elements, text
    window = _window(lo, width)
    if pset.patch_window is not None and lo % 2:
        window = _window(_unlin(pset.patch_window[lo % 4 == 1])
                         - width // 2, width)
    assert pset.expand(window).to_pairs() == _expand_by_filter(pset,
                                                               window)
