"""Timing-wheel DBCRON at alerting scale: throughput and drift.

Scheduler-core benchmarks isolating the *scheduling* path of each
strategy at 10k / 100k (and, gated, 1M) registered rules:

* **heap leg** — the legacy design's full scheduling loop: a RULE_TIME
  catalog (with its ordered ``next_fire`` index) written per fire,
  probed every period for due rules, feeding a binary heap.  The
  catalog work belongs in this leg because the probe *requires* it —
  RULE_TIME is the heap's scheduling source of truth.  RULE_TIME is
  materialised on read, so each probe applies the writes of the fires
  since the last one.
* **wheel leg** — the hierarchical wheel on its own: arms and
  re-arms go straight into O(1) buckets and no catalog is consulted
  (in the live daemon RULE_TIME survives only as a durability record
  off the scheduling path).

Rule actions and everything else the two modes share are deliberately
excluded, so the measured gap is the scheduling cost the wheel rework
actually removed.  The gates check fire throughput, p99 drift in ticks
and — for the gated 1M run — peak RSS; nothing is written.

The 1M sweep runs only with ``REPRO_BENCH_FULL=1`` (it arms a million
rules).
"""

from __future__ import annotations

import os
import resource
import threading

from time import perf_counter

import pytest

from repro.db import Database
from repro.rules import HeapSchedule, WheelSchedule
from repro.rules.tables import RuleTables

#: Simulated steady-state window (ticks) per timed round.
WINDOW = 40
#: Rules actively firing inside the window; the rest are armed at far
#: futures (dormant alerts), which is what dominates real fleets.
ACTIVE = 6_000
PROBE_PERIOD = 7


class _StubRule:
    """The minimal surface RuleTables.register needs."""

    __slots__ = ("name", "expression_text", "expression", "plan",
                 "catalog_texts")

    def __init__(self, name: str) -> None:
        self.name = name
        self.expression_text = "DAYS"
        self.expression = "DAYS"
        self.plan = None
        #: RULE_INFO's (factorized, eval_plan) texts.
        self.catalog_texts = ("DAYS", "")


def _stride(index: int) -> int:
    return 20 + index % 13  # mixed periods, all < WINDOW


class _HeapState:
    """Legacy scheduling core: RULE_TIME catalog + probe + heap."""

    def __init__(self, registry, n_rules: int) -> None:
        self.tables = RuleTables(Database(calendars=registry),
                                 threading.RLock())
        self.sched = HeapSchedule()
        self.now = 1
        self.strides: dict[str, int] = {}
        for i in range(n_rules):
            name = f"alert-{i}"
            if i < ACTIVE:
                first = self.now + 1 + i % _stride(i)
                self.strides[name] = _stride(i)
            else:
                first = self.now + 10_000 + i  # dormant
                self.strides[name] = 10_000
            self.tables.register(_StubRule(name), first)

    def run(self, window: int) -> tuple[int, list[int]]:
        """One steady-state window; (fires, per-fire drift ticks)."""
        fires, drifts = 0, []
        end = self.now + window
        while self.now < end:
            self.now += 1
            if self.now % PROBE_PERIOD == 0:  # the RULE_TIME probe
                for tick, name in self.tables.due_within(
                        self.now, PROBE_PERIOD):
                    self.sched.schedule(name, tick)
            while True:
                wave = self.sched.pop_wave(self.now)
                if not wave:
                    break
                for tick, name in wave:
                    fires += 1
                    drifts.append(self.now - tick)
                    nxt = tick + self.strides[name]
                    # The catalog write is the heap's re-arm path: the
                    # next probe discovers it there.
                    self.tables.set_next_fire(name, nxt)
                    if nxt <= self.now + PROBE_PERIOD:
                        self.sched.schedule(name, nxt)  # inside horizon
        return fires, drifts


class _WheelState:
    """Wheel scheduling core: buckets only, no catalog in the path."""

    def __init__(self, n_rules: int) -> None:
        self.sched = WheelSchedule(1)
        self.now = 1
        self.strides: dict[str, int] = {}
        for i in range(n_rules):
            name = f"alert-{i}"
            if i < ACTIVE:
                first = self.now + 1 + i % _stride(i)
                self.strides[name] = _stride(i)
            else:
                first = self.now + 10_000 + i
                self.strides[name] = 10_000
            self.sched.schedule(name, first)

    def run(self, window: int, step: int = 3) -> tuple[int, list[int]]:
        """One steady-state window advancing ``step`` ticks at a time."""
        fires, drifts = 0, []
        end = self.now + window
        while self.now < end:
            self.now = min(end, self.now + step)
            while True:
                wave = self.sched.pop_wave(self.now)
                if not wave:
                    break
                for tick, name in wave:
                    fires += 1
                    drifts.append(self.now - tick)
                    self.sched.schedule(name, tick + self.strides[name])
        return fires, drifts


def _p99(values: list[int]) -> int:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       round(0.99 * (len(ordered) - 1)))] if ordered else 0


def _measure(state, rounds: int) -> dict:
    """Timed steady-state rounds: fires, fire throughput, p99 drift."""
    total, fires, drifts = 0.0, 0, []
    for _ in range(rounds):
        t0 = perf_counter()
        round_fires, round_drifts = state.run(WINDOW)
        total += perf_counter() - t0
        fires += round_fires
        drifts.extend(round_drifts)
    return {
        "fires": fires,
        "fires_per_s": fires / total if total > 0 else 0.0,
        "p99_drift_ticks": _p99(drifts),
    }


@pytest.mark.parametrize("n_rules", [10_000, 100_000])
def test_wheel_vs_heap_fire_throughput(registry, n_rules):
    """The headline gate: scheduling throughput, wheel vs legacy heap."""
    heap = _measure(_HeapState(registry, n_rules), rounds=2)
    wheel = _measure(_WheelState(n_rules), rounds=2)
    speedup = wheel["fires_per_s"] / heap["fires_per_s"] \
        if heap["fires_per_s"] else float("inf")
    # Identical workloads fire identically.
    assert wheel["fires"] == heap["fires"] > 0
    # The CI drift gate: the wheel daemon must keep up at scale.
    assert wheel["p99_drift_ticks"] <= 2, \
        f"p99 drift {wheel['p99_drift_ticks']} ticks at {n_rules} rules"
    if n_rules >= 100_000:
        # The acceptance floor: at alerting scale the wheel's fire
        # throughput leaves the probe+catalog path >= 10x behind.
        assert speedup >= 10.0, \
            f"wheel only {speedup:.1f}x the heap at {n_rules} rules"


@pytest.mark.skipif(os.environ.get("REPRO_BENCH_FULL") != "1",
                    reason="1M-rule sweep only with REPRO_BENCH_FULL=1")
def test_wheel_one_million_rules_bounded():
    """1M armed rules: completes, bounded memory and drift."""
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    stats = _measure(_WheelState(1_000_000), rounds=2)
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_mb = (rss_after - rss_before) / 1024  # ru_maxrss is KiB on Linux
    assert stats["fires"] > 0
    assert stats["p99_drift_ticks"] <= 2
    # Bounded memory: ~a few hundred bytes per armed rule, not gigabytes.
    assert rss_mb < 2048, f"1M rules grew RSS by {rss_mb:.0f} MiB"


def test_registration_throughput_10k(registry):
    """Arming cost: O(1) wheel buckets vs heap + catalog maintenance."""
    n_rules = 10_000
    t0 = perf_counter()
    _HeapState(registry, n_rules)
    heap_s = perf_counter() - t0
    t0 = perf_counter()
    _WheelState(n_rules)
    wheel_s = perf_counter() - t0
    assert wheel_s < heap_s
