"""Slow-query log: threshold edge cases and Session integration."""

from __future__ import annotations

import threading

import pytest

from repro.obs.instrument import Instrumentation
from repro.obs.slowlog import SlowQueryLog
from repro.session import Session


class TestThresholdEdges:
    def test_exactly_at_threshold_is_recorded(self):
        """The threshold is inclusive: duration == threshold captures."""
        log = SlowQueryLog(0.5)
        assert log.maybe_record("X", 0.5) is not None
        assert log.captured == 1

    def test_just_below_threshold_is_not(self):
        log = SlowQueryLog(0.5)
        assert log.maybe_record("X", 0.4999) is None
        assert log.captured == 0

    def test_zero_threshold_captures_everything(self):
        log = SlowQueryLog(0.0)
        assert log.maybe_record("X", 0.0) is not None

    def test_none_threshold_disables(self):
        log = SlowQueryLog(None)
        assert not log.enabled
        assert log.maybe_record("X", 1e9) is None

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            SlowQueryLog(-0.1)

    def test_ring_bounded_but_captured_total_kept(self):
        log = SlowQueryLog(0.0, capacity=2)
        for i in range(5):
            log.maybe_record(f"q{i}", 1.0)
        assert [r.source for r in log.records()] == ["q3", "q4"]
        assert log.captured == 5

    def test_callable_plan_text_lazily_invoked(self):
        calls = []
        log = SlowQueryLog(0.5)
        log.maybe_record("fast", 0.1,
                         plan_text=lambda: calls.append("fast"))
        record = log.maybe_record("slow", 1.0, plan_text=lambda: (
            calls.append("slow"), "PLAN")[1])
        assert calls == ["slow"]  # never rendered for the fast one
        assert record.plan_text == "PLAN"

    def test_failing_plan_text_swallowed(self):
        def boom():
            raise RuntimeError("cannot compile")

        record = SlowQueryLog(0.0).maybe_record("bad (", 1.0,
                                                plan_text=boom)
        assert record is not None
        assert record.plan_text is None

    def test_callables_not_invoked_below_threshold(self):
        """The log makes the only threshold check: below it, none of
        the lazily built fields is built."""
        calls = []

        def field(name):
            return lambda: calls.append(name)

        log = SlowQueryLog(0.5)
        assert log.maybe_record(
            "fast", 0.1, window=field("window"), cache_stats=field("stats"),
            plan_text=field("plan"), trace=field("trace")) is None
        assert calls == []
        record = log.maybe_record(
            "slow", 1.0, window=lambda: (1, 2),
            cache_stats=lambda: {"hits": 3}, trace=lambda: {"name": "t"})
        assert (record.window, record.cache_stats, record.trace) == \
            ((1, 2), {"hits": 3}, {"name": "t"})


class TestSessionCapture:
    def test_eval_records_below_threshold_nothing(self):
        session = Session(slow_query_threshold=1e9)
        session.eval("[1]/MONTHS:during:1993/YEARS")
        assert session.slow_queries() == []

    def test_eval_records_with_forced_low_threshold(self):
        session = Session(slow_query_threshold=0.0)
        session.eval("[1]/MONTHS:during:1993/YEARS")
        records = session.slow_queries()
        assert len(records) == 1
        record = records[0]
        assert record.source == "[1]/MONTHS:during:1993/YEARS"
        assert record.via == "eval"
        assert record.duration_s >= 0.0
        assert record.plan_text  # compiled plan rendering captured
        assert "generate" in record.plan_text.lower() or \
            "plan" in record.plan_text.lower()
        assert record.window is not None
        assert "requests" in record.cache_stats

    def test_capture_works_with_tracing_disabled(self):
        """The threshold must not depend on tracing being on."""
        # A private bundle: immune to REPRO_TRACE=1 CI passes and to
        # other tests flipping the process-default tracing switch.
        session = Session(slow_query_threshold=0.0,
                          instrumentation=Instrumentation())
        assert not session.instrumentation.tracing
        session.eval("WEEKS:during:1993/YEARS")
        (record,) = session.slow_queries()
        assert record.trace is None

    def test_capture_attaches_trace_when_tracing(self):
        session = Session(slow_query_threshold=0.0,
                          instrumentation=Instrumentation())
        session.instrumentation.enable_tracing()
        session.eval("WEEKS:during:1993/YEARS")
        (record,) = session.slow_queries()
        assert record.trace is not None
        assert record.trace["name"]

    def test_each_record_carries_its_own_evaluation_tree(self):
        """A record's trace is the span of the evaluation it records:
        the ``session.eval_job`` of its own batch job, and for a plain
        eval the ``session.eval`` root around its own registry span —
        never the previous evaluation's tree."""
        session = Session(slow_query_threshold=0.0,
                          instrumentation=Instrumentation())
        session.instrumentation.enable_tracing()
        session.eval("WEEKS:during:1993/YEARS")
        batch = ["[1]/MONTHS:during:1993/YEARS",
                 "[2]/MONTHS:during:1993/YEARS"]
        session.eval_many(batch)
        single, *jobs = session.slow_queries()
        assert single.trace["name"] == "session.eval"
        assert single.trace["meta"]["source"] == "WEEKS:during:1993/YEARS"
        (registry_span,) = single.trace["children"]
        assert registry_span["name"] == "registry.eval_expression"
        assert [(r.source, r.trace["name"], r.trace["meta"]["script"])
                for r in jobs] == [
            (text, "session.eval_job", text) for text in batch]

    def test_eval_many_batch_produces_records(self):
        """The acceptance shape: a 32-script batch, threshold forced low,
        run by three caller threads sharing one session."""
        session = Session(slow_query_threshold=0.0)
        scripts = [f"[{i}]/DAYS:during:[1]/MONTHS:during:1993/YEARS"
                   for i in range(1, 17)] + \
                  [f"[{i}]/WEEKS:during:1993/YEARS" for i in range(1, 17)]
        assert len(scripts) == 32
        results: list = [None] * 3

        def run(index: int) -> None:
            results[index] = session.eval_many(scripts)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [len(batch) for batch in results] == [32, 32, 32]
        # Every job of every caller's batch was captured once.
        assert session.slowlog.captured == 3 * 32
        records = session.slow_queries()
        assert len(records) >= 1
        assert all(r.via == "eval_many" for r in records)

    def test_failed_eval_still_recorded_with_error(self):
        session = Session(slow_query_threshold=0.0)
        with pytest.raises(Exception):
            session.eval("NO_SUCH_CALENDAR_ANYWHERE + 1")
        records = [r for r in session.slow_queries() if r.error]
        assert records, "failing evaluations must still capture"

    def test_env_threshold(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOWLOG_SECONDS", "0.0")
        session = Session()
        assert session.slowlog.enabled
        assert session.slowlog.threshold_s == 0.0

    def test_invalid_env_threshold_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOWLOG_SECONDS", "not-a-number")
        session = Session()
        assert not session.slowlog.enabled

    def test_cli_slowlog_command(self):
        from repro.cli import Session as CliSession

        session = CliSession.__new__(CliSession)
        Session.__init__(session, slow_query_threshold=0.0)
        session.window = None
        assert "no queries" in session.run_line("\\slowlog")
        session.run_line("[1]/MONTHS:during:1993/YEARS")
        out = session.run_line("\\slowlog")
        assert "slow quer" in out
        assert "[1]/MONTHS" in out
        assert "cleared" in session.run_line("\\slowlog clear")
        assert "no queries" in session.run_line("\\slowlog")

    def test_cli_slowlog_disabled_message(self):
        from repro.cli import Session as CliSession

        session = CliSession()
        assert "disabled" in session.run_line("\\slowlog")
