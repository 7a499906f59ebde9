"""Unit tests for the shared materialisation cache."""

import pytest

from repro.core import CalendarSystem
from repro.core.calendar import Calendar
from repro.core.errors import CalendarError
from repro.core.matcache import (
    MaterialisationCache,
    get_default_cache,
    set_default_cache,
)


@pytest.fixture(scope="module")
def sys87():
    return CalendarSystem.starting("Jan 1 1987")


@pytest.fixture
def cache():
    return MaterialisationCache()


class TestSubsumption:
    def test_sub_window_is_a_hit(self, sys87, cache):
        cache.generate(sys87, "MONTHS", "DAYS", (1, 1461), "cover")
        before = cache.stats()
        got = cache.generate(sys87, "MONTHS", "DAYS", (100, 400), "clip")
        after = cache.stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert after["generated_intervals"] == \
            before["generated_intervals"]
        want = sys87.generate("MONTHS", "DAYS", (100, 400), mode="clip")
        assert got.to_pairs() == want.to_pairs()
        assert got.labels == want.labels

    def test_identical_request_returns_identical_object(self, sys87,
                                                        cache):
        """Repeats share one Calendar, so per-calendar memos are shared."""
        a = cache.generate(sys87, "WEEKS", "DAYS", (50, 250), "clip")
        b = cache.generate(sys87, "WEEKS", "DAYS", (50, 250), "clip")
        assert a is b

    def test_clip_paper_example_from_wider_cover_entry(self, sys87,
                                                       cache):
        """Section 3.2's clipped years, served off a wider cover entry."""
        cache.generate(sys87, "YEARS", "DAYS", (-400, 2500), "cover")
        got = cache.generate(sys87, "YEARS", "DAYS",
                             ("Jan 1 1987", "Jan 3 1992"), "clip")
        assert got.to_pairs() == (
            (1, 365), (366, 731), (732, 1096),
            (1097, 1461), (1462, 1826), (1827, 1829))


class TestExtension:
    def test_partial_overlap_extends_instead_of_regenerating(self, sys87,
                                                             cache):
        cache.generate(sys87, "DAYS", "DAYS", (1, 400), "cover")
        mid = cache.stats()
        got = cache.generate(sys87, "DAYS", "DAYS", (200, 800), "cover")
        after = cache.stats()
        assert after["extensions"] == mid["extensions"] + 1
        # Only the uncovered right span (401..800) was generated.
        assert after["generated_intervals"] - \
            mid["generated_intervals"] == 400
        want = sys87.generate("DAYS", "DAYS", (200, 800), mode="cover")
        assert got.to_pairs() == want.to_pairs()

    def test_extension_grows_both_sides(self, sys87, cache):
        cache.generate(sys87, "MONTHS", "DAYS", (300, 600), "cover")
        got = cache.generate(sys87, "MONTHS", "DAYS", (-300, 900), "clip")
        want = sys87.generate("MONTHS", "DAYS", (-300, 900), mode="clip")
        assert got.to_pairs() == want.to_pairs()
        assert got.labels == want.labels
        # The widened entry now serves the union window outright.
        before = cache.stats()
        cache.generate(sys87, "MONTHS", "DAYS", (-300, 900), "cover")
        assert cache.stats()["hits"] == before["hits"] + 1

    def test_sliding_window_extends_instead_of_retiling(self, sys87):
        """A one-year window slid month by month over two years: the
        shared cache serves each slide by subsumption and extension, and
        results match a cold re-run and a disabled cache."""
        from repro.lang import EvalContext, Interpreter, parse_expression
        from repro.lang.defs import basic_resolver

        expr = parse_expression("[2]/DAYS:during:WEEKS")
        starts = [sys87.day_of(f"{1990 + i // 12}-{i % 12 + 1:02d}-01")
                  for i in range(24)]

        def slide(cache):
            return [Interpreter(EvalContext(
                system=sys87, resolver=basic_resolver,
                window=(lo, lo + 364), matcache=cache)).evaluate(
                    expr).to_pairs() for lo in starts]

        shared = MaterialisationCache()
        cold = slide(shared)
        assert slide(shared) == cold == slide(MaterialisationCache(maxsize=0))
        stats = shared.stats()
        assert stats["hits"] > 0
        assert stats["extensions"] > 0
        assert stats["generated_intervals"] < stats["served_intervals"]


class TestEviction:
    def test_lru_evicts_oldest_key(self, sys87):
        small = MaterialisationCache(maxsize=2)
        small.generate(sys87, "DAYS", "DAYS", (1, 10), "clip")
        small.generate(sys87, "WEEKS", "DAYS", (1, 10), "clip")
        small.generate(sys87, "MONTHS", "DAYS", (1, 10), "clip")
        stats = small.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        # The evicted (DAYS, DAYS) key is a miss again — and correct.
        got = small.generate(sys87, "DAYS", "DAYS", (1, 10), "clip")
        assert got.to_pairs() == tuple((t, t) for t in range(1, 11))
        assert small.stats()["misses"] == stats["misses"] + 1


class TestDisabled:
    def test_maxsize_zero_is_pass_through(self, sys87):
        off = MaterialisationCache(maxsize=0)
        assert not off.enabled
        got = off.generate(sys87, "YEARS", "DAYS", (1, 1000), "clip")
        want = sys87.generate("YEARS", "DAYS", (1, 1000), mode="clip")
        assert got.to_pairs() == want.to_pairs()
        stats = off.stats()
        assert stats["entries"] == 0
        assert stats["hits"] == 0

    def test_memo_is_a_no_op_when_disabled(self):
        off = MaterialisationCache(maxsize=0)
        off.memo_put(("k",), 123)
        assert off.memo_get(("k",)) is None
        assert off.stats()["memo_entries"] == 0

    def test_errors_match_fresh_generate(self, sys87, cache):
        with pytest.raises(CalendarError):
            cache.generate(sys87, "DAYS", "YEARS", (1, 10), "clip")
        with pytest.raises(CalendarError):
            cache.generate(sys87, "DAYS", "DAYS", (1, 10), "sideways")


class TestMemo:
    def test_put_get_roundtrip(self, cache):
        cache.memo_put(("a", 1), "value")
        assert cache.memo_get(("a", 1)) == "value"
        assert cache.memo_get(("a", 2)) is None

    def test_memo_lru_bound(self):
        tiny = MaterialisationCache(memo_maxsize=2)
        tiny.memo_put(("a",), 1)
        tiny.memo_put(("b",), 2)
        tiny.memo_put(("c",), 3)
        assert tiny.memo_get(("a",)) is None
        assert tiny.memo_get(("c",)) == 3


class TestDefaultCache:
    def test_set_and_restore(self):
        original = get_default_cache()
        replacement = MaterialisationCache(maxsize=4)
        try:
            set_default_cache(replacement)
            assert get_default_cache() is replacement
        finally:
            set_default_cache(original)


class TestRegistryInvalidation:
    def test_redefine_is_never_served_stale(self):
        from repro.catalog import CalendarRegistry
        registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                    matcache=MaterialisationCache())
        registry.define("SPOT", values=Calendar.point(5),
                        granularity="DAYS")
        first = registry.eval_expression("SPOT")
        assert first.to_pairs() == ((5, 5),)
        registry.define("SPOT", values=Calendar.point(9),
                        granularity="DAYS", replace=True)
        second = registry.eval_expression("SPOT")
        assert second.to_pairs() == ((9, 9),)

    def test_drop_is_never_served_stale(self):
        from repro.catalog import CalendarRegistry
        registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                    matcache=MaterialisationCache())
        registry.define("SPOT", values=Calendar.point(5),
                        granularity="DAYS")
        registry.eval_expression("SPOT")
        registry.drop("SPOT")
        with pytest.raises(CalendarError):
            registry.eval_expression("SPOT")

    def test_two_registries_never_share_memo_entries(self):
        from repro.catalog import CalendarRegistry
        shared = MaterialisationCache()
        system = CalendarSystem.starting("Jan 1 1987")
        first = CalendarRegistry(system, matcache=shared)
        second = CalendarRegistry(system, matcache=shared)
        first.define("SPOT", values=Calendar.point(5),
                     granularity="DAYS")
        second.define("SPOT", values=Calendar.point(9),
                      granularity="DAYS")
        assert first.eval_expression("SPOT").to_pairs() == ((5, 5),)
        assert second.eval_expression("SPOT").to_pairs() == ((9, 9),)
