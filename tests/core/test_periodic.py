"""Periodic-set compilation: the compiled form, its gate, and its wiring.

The parity of compiled answers against the interpreter oracle across
random expressions lives in ``tests/property/test_periodic_props.py``;
this file covers the deterministic surface: PeriodicSet arithmetic on
the zero-skip axis, compilation outcomes (including every documented
fallback class), the registry's ``periodic`` gate, the
no-materialisation guarantee for scheduling, and the ``explain``
backend annotation.
"""

from __future__ import annotations

import random

import pytest

from repro.catalog import (
    CalendarRegistry,
    install_standard_calendars,
    install_us_holidays,
)
from repro.core.calendar import Calendar
from repro.core.granularity import Granularity
from repro.core.matcache import MaterialisationCache
from repro.core.periodic import (
    GREGORIAN_PERIOD_DAYS,
    PeriodicSet,
    _lin,
    _unlin,
    compile_expression_oracle,
    compile_expression_periodic,
)


@pytest.fixture()
def registry(system87) -> CalendarRegistry:
    """conftest's ``registry`` with a private cache passed explicitly:
    several tests here observe the compile memo and the cache's request
    counter, which a ``REPRO_MATCACHE_SIZE=0`` run (no process-wide
    cache) must not remove."""
    reg = CalendarRegistry(system87, default_horizon_years=25,
                           matcache=MaterialisationCache())
    install_standard_calendars(reg)
    install_us_holidays(reg, 1987, 2006)
    return reg


@pytest.fixture()
def tuesdays() -> PeriodicSet:
    """Hand-built weekly set: linear day 4 of each week (Tuesdays).

    Linear day 0 is Thursday Jan 1 1987 (axis tick 1), so the first
    Tuesday is linear day 5 (axis tick 6).  Offsets are runs of linear
    days within the period: ``(5, 5)`` is the single-day run.
    """
    return PeriodicSet(period=7, offsets=((5, 5),),
                       granularity=Granularity.DAYS,
                       source="[2]/DAYS:during:WEEKS")


class TestPeriodicSetArithmetic:
    def test_contains_is_period_modular(self, tuesdays):
        assert tuesdays.contains(6)
        assert tuesdays.contains(6 + 7)
        assert tuesdays.contains(6 + 70_000 * 7)
        assert not tuesdays.contains(5)
        assert not tuesdays.contains(7)

    def test_next_occurrence_strictly_after(self, tuesdays):
        assert tuesdays.next_occurrence(5) == 6
        assert tuesdays.next_occurrence(6) == 13
        assert tuesdays.next_occurrence(12) == 13

    def test_prev_occurrence_strictly_before(self, tuesdays):
        assert tuesdays.prev_occurrence(13) == 6
        assert tuesdays.prev_occurrence(7) == 6

    def test_zero_skip_axis_has_no_tick_zero(self, tuesdays):
        """The axis jumps -1 -> 1; no occurrence may be reported at 0."""
        walker = tuesdays.next_occurrence(-400)
        seen = []
        while walker is not None and walker < 40:
            seen.append(walker)
            walker = tuesdays.next_occurrence(walker)
        assert 0 not in seen
        assert seen == sorted(seen)
        # consecutive Tuesdays are 7 axis days apart — which spans the
        # -1 -> 1 jump without a phantom extra day.
        gaps = {b - a for a, b in zip(seen, seen[1:])}
        assert gaps <= {7, 8}  # 8 only across the missing tick 0

    def test_negative_ticks_round_trip(self, tuesdays):
        t = tuesdays.next_occurrence(-1000)
        assert tuesdays.contains(t)
        assert tuesdays.next_occurrence(tuesdays.prev_occurrence(t)) == t
        assert tuesdays.prev_occurrence(tuesdays.next_occurrence(t)) == t

    def test_iter_from_matches_next_chain(self, tuesdays):
        ticks = []
        for tick in tuesdays.iter_from(-30):
            ticks.append(tick)
            if len(ticks) == 10:
                break
        chain, cursor = [], tuesdays.next_occurrence(-31)
        while len(chain) < 10:
            chain.append(cursor)
            cursor = tuesdays.next_occurrence(cursor)
        assert ticks == chain


class TestCompilationOutcomes:
    def test_weekly_selection_compiles_to_period_7(self, registry):
        pset = registry.periodic_set("[2]/DAYS:during:WEEKS")
        assert pset is not None
        assert pset.period == 7
        assert len(pset.offsets) == 1

    def test_weekday_union_compiles(self, registry):
        pset = registry.periodic_set("flatten([1-5]/DAYS:during:WEEKS)")
        assert pset is not None
        assert pset.period == 7
        # contiguous weekdays merge into runs; 5 covered days per week
        assert sum(hi - lo + 1 for lo, hi in pset.offsets) == 5

    def test_finite_expression_compiles_to_pure_patch(self, registry):
        pset = registry.periodic_set(
            "DAYS:during:[1]/MONTHS:during:1993/YEARS")
        assert pset is not None
        assert pset.period == 0
        assert len(pset.patch_elements) == 31
        assert pset.exact_elements

    def test_month_shape_needs_the_gregorian_period(self, registry):
        pset = registry.periodic_set("[1]/DAYS:during:MONTHS")
        assert pset is not None
        assert pset.period == GREGORIAN_PERIOD_DAYS
        assert len(pset.offsets) == 4800  # 12 months x 400 years

    def test_today_falls_back(self, registry):
        assert registry.periodic_set("today:during:WEEKS") is None

    def test_unbounded_lookback_falls_back(self, registry):
        assert registry.periodic_set("DAYS:<:WEEKS") is None

    def test_clipped_lifespan_calendar_falls_back(self, registry):
        """HOLIDAYS carries an install lifespan; evaluate() clips by it,
        so the compiled form (which cannot see the clip) must refuse."""
        assert registry.periodic_set("HOLIDAYS") is None

    def test_fallback_is_memoised_and_reported(self, registry):
        registry.periodic_set("today:during:WEEKS")
        fallbacks = registry.instrumentation.metrics.counter(
            "periodic.fallback").value
        registry.periodic_set("today:during:WEEKS")
        assert registry.instrumentation.metrics.counter(
            "periodic.fallback").value == fallbacks

    def test_compiled_metric_counts(self, registry):
        before = registry.instrumentation.metrics.counter(
            "periodic.compiled").value
        registry.periodic_set("[3]/DAYS:during:WEEKS")
        assert registry.instrumentation.metrics.counter(
            "periodic.compiled").value == before + 1

    def test_peek_never_compiles(self, registry):
        metrics = registry.instrumentation.metrics
        compiled = metrics.counter("periodic.compiled").value
        fallback = metrics.counter("periodic.fallback").value
        assert registry.periodic_set("[4]/DAYS:during:WEEKS",
                                     peek=True) is None
        assert metrics.counter("periodic.compiled").value == compiled
        assert metrics.counter("periodic.fallback").value == fallback
        # ...and a peek after a real compile serves the memoised form
        pset = registry.periodic_set("[4]/DAYS:during:WEEKS")
        assert registry.periodic_set("[4]/DAYS:during:WEEKS",
                                     peek=True) is pset

    def test_direct_compiler_reports_reasons(self, registry):
        from repro.lang.factorizer import factorize
        from repro.lang.parser import parse_expression

        factored = factorize(parse_expression("today:during:WEEKS"),
                             registry.resolver).expression
        reasons = []
        pset = compile_expression_periodic(
            factored, system=registry.system, resolver=registry.resolver,
            evaluate=lambda win: registry.eval_expression(
                "today:during:WEEKS", window=win, optimize=False),
            reason_out=reasons)
        assert pset is None
        assert reasons


class TestGate:
    def test_env_gate_defaults_on(self, registry):
        assert registry.periodic

    def test_gated_off_registry_never_compiles(self, registry):
        registry.periodic = False
        assert registry.periodic_set("[2]/DAYS:during:WEEKS") is None

    def test_session_gate_reaches_database(self):
        from repro.session import Session

        session = Session(holiday_years=(1987, 1996))
        session.registry.periodic = False
        assert not session.db.calendars.periodic
        assert session.db.resolve_periodic("Mondays") is None

    def test_gated_off_results_agree(self, registry, system87):
        plain = CalendarRegistry(system87, default_horizon_years=25,
                                 periodic=False)
        install_standard_calendars(plain)
        install_us_holidays(plain, 1987, 2006)
        window = ("Jan 1 1993", "Dec 31 1993")
        for text in ("[2]/DAYS:during:WEEKS", "Weekdays",
                     "DAYS:during:[1]/MONTHS:during:1993/YEARS"):
            registry.eval_expression(text, window=window)  # warm compile
            # memo=False: computed again (with the periodic backend),
            # not served from the result memo.
            assert registry.eval_expression(
                text, window=window, memo=False).flatten() == \
                plain.eval_expression(text, window=window).flatten()
            assert registry.next_occurrence(text, 2200) == \
                plain.next_occurrence(text, 2200)


class _DayRequests(MaterialisationCache):
    """A cache recording how each (DAYS, DAYS) request was served.

    Once ``served`` is a list, every such request that reached an entry
    appends the counter it moved: ``hits``, ``misses`` or
    ``extensions`` (a narrow bypass moves none of them).
    """

    served: "list[str] | None" = None

    def generate(self, system, cal, unit, window, mode="clip"):
        days = (Granularity.parse(cal), Granularity.parse(unit)) == \
            (Granularity.DAYS, Granularity.DAYS)
        if self.served is None or not days:
            return super().generate(system, cal, unit, window, mode)
        before = self.stats()
        result = super().generate(system, cal, unit, window, mode)
        after = self.stats()
        self.served += [kind for kind in ("hits", "misses", "extensions")
                        if after[kind] > before[kind]]
        return result


def _oracle_compile(registry, text: str, max_eval_days: int = 220_000):
    """Compile ``text`` with every window read from the interpreter."""
    from repro.lang.factorizer import factorize
    from repro.lang.parser import parse_expression

    factored = factorize(parse_expression(text),
                         registry.resolver).expression
    return compile_expression_oracle(
        factored, system=registry.system, resolver=registry.resolver,
        evaluate=lambda win: registry.eval_expression(
            text, window=win, optimize=False),
        source=text, max_eval_days=max_eval_days)


class TestSharedCacheAnchor:
    def test_full_tier_compiles_do_not_pin_the_shared_cache(self):
        """An oracle compile of a Gregorian-period shape evaluates its
        anchor period next to the present era, so the shared DAYS entry
        it leaves behind still serves (or extends over) later
        present-era requests instead of turning them into uncached
        narrow bypasses."""
        from repro.session import Session

        cache = _DayRequests()
        registry = Session(holiday_years=(1987, 2006),
                           matcache=cache).registry
        for text in ("LDOM", "[1]/AM_BUS_DAYS:during:MONTHS"):
            pset = _oracle_compile(registry, text)
            assert pset is not None
            assert pset.period == GREGORIAN_PERIOD_DAYS
        bypasses = cache.stats()["narrow_bypass"]
        cache.served = []
        assert _oracle_compile(
            registry, "[3]/DAYS:during:WEEKS:during:2004/YEARS") is not None
        assert cache.stats()["narrow_bypass"] == bypasses
        assert cache.served
        assert set(cache.served) <= {"hits", "extensions"}

    def test_closed_form_compiles_leave_the_shared_cache_alone(self):
        """The default compile reads these shapes in closed form: no
        materialisation request reaches the shared cache."""
        from repro.session import Session

        cache = MaterialisationCache()
        registry = Session(holiday_years=(1987, 2006),
                           matcache=cache).registry
        before = cache.stats()["requests"]
        for text in ("LDOM", "[1]/AM_BUS_DAYS:during:MONTHS",
                     "[3]/DAYS:during:WEEKS:during:2004/YEARS"):
            assert registry.periodic_set(text) is not None
        assert cache.stats()["requests"] == before


class TestNoMaterialisation:
    """The acceptance criterion: scheduling on a compiled rule never
    generates a window — observed through the matcache request counter,
    which ticks on every MaterialisationCache.generate call."""

    def test_next_occurrence_does_not_generate(self, registry):
        registry.periodic_set("[2]/DAYS:during:WEEKS")  # compile now
        before = registry.matcache.stats()["requests"]
        for after in (2000, 2100, 2345, -5, 9000):
            assert registry.next_occurrence(
                "[2]/DAYS:during:WEEKS", after) is not None
        assert registry.matcache.stats()["requests"] == before

    def test_rule_next_trigger_does_not_generate(self, ruled_db):
        db, manager, clock, cron = ruled_db
        registry = db.calendars
        manager.declare_temporal(
            "weekly", expression="[2]/DAYS:during:WEEKS",
            callback=lambda database, tick: None)
        rule = manager.temporal_rules["weekly"]
        assert rule.periodic is not None
        before = registry.matcache.stats()["requests"]
        after = clock.now
        for _ in range(25):
            after = rule.next_trigger(registry, after)
            assert after is not None
        assert registry.matcache.stats()["requests"] == before

    def test_materialising_rule_still_generates(self, ruled_db):
        """Control: with the gate off the same walk does hit the cache."""
        db, manager, clock, cron = ruled_db
        registry = db.calendars
        registry.periodic = False
        manager.declare_temporal(
            "weekly", expression="[2]/DAYS:during:WEEKS",
            callback=lambda database, tick: None)
        rule = manager.temporal_rules["weekly"]
        assert rule.periodic is None
        before = registry.matcache.stats()["requests"]
        # an `after` outside the schedule blocks warmed at declaration
        rule.next_trigger(registry, clock.now + 5_000)
        assert registry.matcache.stats()["requests"] > before


class TestExplainBackend:
    def _session(self):
        from repro.session import Session

        # The compile memo lives in the cache: a private one keeps it
        # whatever REPRO_MATCACHE_SIZE sizes the process-wide cache to.
        return Session(holiday_years=(1987, 1996),
                       matcache=MaterialisationCache())

    def test_backend_periodic_after_warm_eval(self):
        session = self._session()
        text = "[2]/DAYS:during:WEEKS"
        window = ("Jan 1 1993", "Dec 31 1993")
        for _ in range(2):  # first eval warms the compile memo
            session.eval(text, window=window)
        explanation = session.explain(text, window=window)
        assert explanation.backend.startswith("periodic")
        assert "backend" in explanation.render()
        from repro.lang.plan import PeriodicStep
        assert any(isinstance(step, PeriodicStep)
                   for step in explanation.opt_plan.steps)

    def test_backend_chain_for_non_compilable(self):
        session = self._session()
        text = "DAYS:<:WEEKS"
        window = ("Jan 1 1993", "Mar 31 1993")
        for _ in range(2):
            session.eval(text, window=window)
        explanation = session.explain(text, window=window)
        assert explanation.backend == "materialising chain"

    def test_explain_before_any_eval_stays_side_effect_free(self):
        session = self._session()
        metrics = session.registry.instrumentation.metrics
        compiled = metrics.counter("periodic.compiled").value
        fallback = metrics.counter("periodic.fallback").value
        explanation = session.explain("[2]/DAYS:during:WEEKS",
                                      window=("Jan 1 1993", "Dec 31 1993"))
        assert explanation.backend == "materialising chain"
        assert metrics.counter("periodic.compiled").value == compiled
        assert metrics.counter("periodic.fallback").value == fallback

    def test_plan_substitution_result_parity(self):
        session = self._session()
        text = "flatten([1-5]/DAYS:during:WEEKS)"
        window = ("Dec 28 1992", "Jan 4 1993")  # year-straddling window
        first = session.eval(text, window=window).flatten()
        # Computed again, now with the warmed periodic backend (the
        # result memo would serve ``first`` itself).
        again = session.registry.eval_expression(
            text, window=window, memo=False).flatten()
        assert first == again
        gated = self._session_off()
        assert gated.eval(text, window=window).flatten() == first

    def _session_off(self):
        from repro.session import Session

        session = Session(holiday_years=(1987, 1996))
        session.registry.periodic = False
        return session


def _expand_via_from_intervals(pset: PeriodicSet, window) -> Calendar:
    """``PeriodicSet.expand`` as it was built before its columns were:
    linear pairs collected, converted and checked one tuple at a time by
    ``Calendar.from_intervals``."""
    lo, hi = _lin(window[0]), _lin(window[1])
    out = []
    if pset.period and pset.elements:
        span = max(b - a for a, b in pset.elements)
        first = (lo - span - pset.period) // pset.period
        for block in range(first, hi // pset.period + 1):
            base = block * pset.period
            for elo, ehi in pset.elements:
                alo, ahi = base + elo, base + ehi
                if ahi < lo or alo > hi:
                    continue
                out.append((alo, ahi))
    for elo, ehi in pset.patch_elements:
        if ehi < lo or elo > hi:
            continue
        out.append((elo, ehi))
    return Calendar.from_intervals(
        [(_unlin(a), _unlin(b)) for a, b in out], pset.granularity)


def _fields(cal: Calendar) -> tuple:
    cols = cal.columns
    return (cal.order, cal.granularity, cal.labels, cols.los.tobytes(),
            cols.his.tobytes(), cols.lo_sorted, cols.hi_sorted,
            cols.disjoint)


class TestExpand:
    """``expand`` builds its columns directly; the result equals the
    ``from_intervals`` construction field for field."""

    #: A periodic part plus patch elements that precede it on the axis
    #: (so the appended patch leaves the lo lane unsorted), straddling
    #: the missing tick 0 and spanning more than one day.
    MIXED = PeriodicSet(
        period=7, offsets=((1, 2), (5, 5)), elements=((1, 2), (5, 5)),
        patch_elements=((-30, -29), (-3, 1), (40, 40)),
        granularity=Granularity.DAYS, exact_elements=True)

    def _psets(self, registry):
        psets = [self.MIXED]
        for text in ("[2]/DAYS:during:WEEKS",
                     "flatten([1-5]/DAYS:during:WEEKS)",
                     "DAYS:during:[1]/MONTHS:during:1993/YEARS",
                     "[1]/DAYS:during:MONTHS"):
            pset = registry.periodic_set(text)
            assert pset is not None and pset.exact_elements, text
            psets.append(pset)
        return psets

    def test_expand_equals_from_intervals_over_random_windows(self,
                                                              registry):
        rng = random.Random(2024)
        psets = self._psets(registry)
        windows = [(-40, 45), (1, 1), (-1, -1), (2190, 2560)]
        for _ in range(60):
            lo = rng.randrange(-3000, 6000) or 1
            hi = lo + rng.randrange(0, 900)
            windows.append((lo, hi if hi != 0 else 1))
        for pset in psets:
            for window in windows:
                got = pset.expand(window)
                want = _expand_via_from_intervals(pset, window)
                assert _fields(got) == _fields(want), (pset.source, window)

    def test_mixed_expansion_keeps_patch_order(self):
        cal = self.MIXED.expand((-40, 45))
        assert not cal.columns.lo_sorted
        assert cal.to_pairs()[-3:] == ((-30, -29), (-3, 2), (41, 41))
