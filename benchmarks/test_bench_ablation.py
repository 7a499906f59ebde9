"""Ablations: which optimisation buys what.

DESIGN.md calls out three design choices; each is ablated independently:

* **factorization** (the section 3.4 rewrite) — on/off;
* **window narrowing** (selection look-ahead) — on/off;
* **lane candidate ranges** in ``foreach`` — exercised by feeding
  the same intervals sorted (binary-searched lane range) vs shuffled
  (full-scan fallback).

The 2x2 factorize/narrow grid runs the Figure-2 expression over a 30-year
context; the enforced shape is monotone improvement in generated
intervals along both axes.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core import Calendar, Interval, foreach
from repro.lang import (
    EvalContext,
    PlanVM,
    compile_expression,
    expand,
    factorize,
    parse_expression,
)
from repro.lang.defs import basic_resolver

EXPRESSION = ("[1]/DAYS:during:WEEKS:during:"
              "[1]/MONTHS:during:1993/YEARS")
UNFACTORIZED = ("([1]/DAYS:during:WEEKS):during:"
                "(([1]/MONTHS:during:YEARS):during:1993/YEARS)")


def window_of(registry):
    lo, _ = registry.system.epoch.days_of_year(1987)
    _, hi = registry.system.epoch.days_of_year(2016)
    return lo, hi


def run_variant(registry, factorized: bool, narrowed: bool):
    window = window_of(registry)
    text = EXPRESSION if factorized else UNFACTORIZED
    expr = parse_expression(text)
    if factorized:
        expr = factorize(expr, basic_resolver).expression
    else:
        expr = expand(expr, basic_resolver)
    plan = compile_expression(expr, registry.system, basic_resolver,
                              context_window=window, narrow=narrowed)
    ctx = EvalContext(system=registry.system, resolver=basic_resolver,
                      window=window)
    result = PlanVM(ctx).run(plan)
    return result, ctx.stats["intervals_generated"]


@pytest.mark.parametrize("factorized", [False, True])
@pytest.mark.parametrize("narrowed", [False, True])
def test_grid_benchmark(benchmark, registry, factorized, narrowed):
    result, _ = benchmark(
        lambda: run_variant(registry, factorized, narrowed))


def test_report_ablation_grid(registry):
    print("\n=== Ablation: factorization x window narrowing "
          "(Mondays of January 1993, 30-year context)")
    print(f"{'factorize':>9} | {'narrow':>6} | {'intervals':>9} | "
          f"{'ms':>8}")
    grid = {}
    reference = None
    for factorized in (False, True):
        for narrowed in (False, True):
            t0 = time.perf_counter()
            result, intervals = run_variant(registry, factorized,
                                            narrowed)
            elapsed = (time.perf_counter() - t0) * 1e3
            grid[(factorized, narrowed)] = intervals
            if reference is None:
                reference = result.to_pairs()
            assert result.to_pairs() == reference
            print(f"{str(factorized):>9} | {str(narrowed):>6} | "
                  f"{intervals:>9} | {elapsed:>8.2f}")
    # Monotone improvement along both axes.
    assert grid[(True, False)] <= grid[(False, False)]
    assert grid[(False, True)] <= grid[(False, False)]
    assert grid[(True, True)] <= grid[(True, False)]
    assert grid[(True, True)] <= grid[(False, True)]
    assert grid[(True, True)] < grid[(False, False)] / 3


class TestLaneRangeAblation:
    N = 20_000

    def _sorted_calendar(self):
        return Calendar.from_intervals([(d, d)
                                        for d in range(1, self.N + 1)])

    def _shuffled_calendar(self):
        days = list(range(1, self.N + 1))
        random.Random(7).shuffle(days)
        return Calendar.from_intervals([(d, d) for d in days])

    def test_sorted_fast_path(self, benchmark):
        cal = self._sorted_calendar()
        ref = Interval(self.N // 2, self.N // 2 + 100)
        result = benchmark(lambda: foreach("during", cal, ref))
        assert len(result) == 101

    def test_shuffled_full_scan(self, benchmark):
        cal = self._shuffled_calendar()
        ref = Interval(self.N // 2, self.N // 2 + 100)
        result = benchmark(lambda: foreach("during", cal, ref))
        assert len(result) == 101

    def test_report_sorted_vs_shuffled(self):
        ref = Interval(self.N // 2, self.N // 2 + 100)
        cal_sorted = self._sorted_calendar()
        cal_shuffled = self._shuffled_calendar()
        t0 = time.perf_counter()
        for _ in range(20):
            foreach("during", cal_sorted, ref)
        fast = (time.perf_counter() - t0) / 20 * 1e3
        t0 = time.perf_counter()
        for _ in range(20):
            foreach("during", cal_shuffled, ref)
        slow = (time.perf_counter() - t0) / 20 * 1e3
        print(f"\n=== Ablation: lane candidate ranges "
              f"(20k-instant calendar, 101-day probe)")
        print(f"   sorted (binary-searched): {fast:8.3f} ms")
        print(f"   shuffled (full scan):     {slow:8.3f} ms  "
              f"({slow / max(fast, 1e-9):.0f}x slower)")
        assert fast < slow
