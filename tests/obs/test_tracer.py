"""Span tracer: nesting, the trace ring, and the disabled no-op path."""

import threading

import pytest

from repro.obs.instrument import (
    Instrumentation,
    get_default_instrumentation,
    set_default_instrumentation,
)
from repro.obs.tracer import Span, Tracer
from repro.session import Session


class TestSpanNesting:
    def test_children_attach_to_open_parent(self):
        t = Tracer()
        with t.span("root"):
            with t.span("child-a"):
                with t.span("grandchild"):
                    pass
            with t.span("child-b"):
                pass
        [root] = t.recent()
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert root.children[0].children[0].name == "grandchild"

    def test_durations_nest(self):
        t = Tracer()
        with t.span("root"):
            with t.span("child"):
                pass
        [root] = t.recent()
        child = root.children[0]
        assert root.duration >= child.duration >= 0.0
        assert root.self_time == pytest.approx(
            root.duration - child.duration)

    def test_walk_leaves_find(self):
        t = Tracer()
        with t.span("root"):
            with t.span("a"):
                pass
            with t.span("a"):
                pass
        [root] = t.recent()
        assert [s.name for s in root.walk()] == ["root", "a", "a"]
        assert [s.name for s in root.leaves()] == ["a", "a"]
        assert len(root.find("a")) == 2

    def test_exception_recorded_and_propagated(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("boom"):
                raise RuntimeError("bad")
        [root] = t.recent()
        assert "RuntimeError" in root.meta["error"]

    def test_control_flow_signals_not_recorded(self):
        class _Signal(Exception):
            pass

        t = Tracer()
        with pytest.raises(_Signal):
            with t.span("loop"):
                raise _Signal()
        [root] = t.recent()
        assert "error" not in root.meta

    def test_event_attaches_to_current_span(self):
        t = Tracer()
        with t.span("root"):
            t.event("decision", kind="narrow")
        [root] = t.recent()
        assert root.children[0].name == "decision"
        assert root.children[0].duration == 0.0

    def test_tree_and_to_dict_render(self):
        t = Tracer()
        with t.span("root", label="x"):
            with t.span("child"):
                pass
        [root] = t.recent()
        text = root.tree()
        assert "root" in text and "child" in text and "label=x" in text
        d = root.to_dict()
        assert d["name"] == "root"
        assert d["children"][0]["name"] == "child"


class TestTraceRing:
    def test_ring_evicts_oldest(self):
        t = Tracer(ring_size=3)
        for i in range(5):
            with t.span(f"s{i}"):
                pass
        assert [s.name for s in t.recent()] == ["s2", "s3", "s4"]

    def test_only_roots_published(self):
        t = Tracer()
        with t.span("root"):
            with t.span("child"):
                pass
        assert [s.name for s in t.recent()] == ["root"]

    def test_ring_size_validated(self):
        with pytest.raises(ValueError):
            Tracer(ring_size=0)

    def test_span_budget_bounds_trace_size(self):
        t = Tracer(max_spans=5)
        with t.span("root"):
            for _ in range(20):
                with t.span("child"):
                    pass
        [root] = t.recent()
        assert len(list(root.walk())) <= 5
        assert root.meta["dropped_spans"] == 16  # 20 attempts, 4 kept

    def test_span_budget_counts_events(self):
        t = Tracer(max_spans=3)
        with t.span("root"):
            for _ in range(10):
                t.event("tick")
        [root] = t.recent()
        assert len(root.children) == 2
        assert root.meta["dropped_spans"] == 8

    def test_meta_written_past_the_budget_is_dropped(self):
        t = Tracer(max_spans=2)
        with t.span("root"):
            with t.span("kept") as kept:
                kept.meta["n"] = 1
            with t.span("dropped") as dropped:
                dropped.meta["n"] = 2  # a no-op, not an AttributeError
        [root] = t.recent()
        assert [(c.name, c.meta) for c in root.children] == \
            [("kept", {"n": 1})]

    def test_span_budget_validated(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)

    def test_finished_trees_have_no_back_references(self):
        t = Tracer()
        with t.span("root"):
            with t.span("child"):
                pass
        [root] = t.recent()
        for span in root.walk():
            assert span._parent is None
            assert span._tracer is None

    def test_clear(self):
        t = Tracer()
        with t.span("s"):
            pass
        t.clear()
        assert t.recent() == []

    def test_per_thread_stacks_are_independent(self):
        t = Tracer()
        seen = []

        def worker():
            with t.span("worker-root"):
                seen.append(t.current().name)

        with t.span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert t.current().name == "main-root"
        assert seen == ["worker-root"]
        assert sorted(s.name for s in t.recent()) == \
            ["main-root", "worker-root"]


class TestInstrumentation:
    def test_disabled_tracer_is_none(self):
        inst = Instrumentation()
        assert inst.tracer is None
        assert inst.tracing is False

    def test_enable_disable(self):
        inst = Instrumentation()
        inst.enable_tracing()
        assert inst.tracer is inst.raw_tracer
        inst.disable_tracing()
        assert inst.tracer is None

    def test_disabled_records_nothing(self):
        inst = Instrumentation()
        tracer = inst.tracer
        if tracer is not None:  # the hot-path guard under test
            with tracer.span("never"):
                pass
        assert inst.recent_traces() == []

    def test_swap_tracer_restores(self):
        inst = Instrumentation()
        private = Tracer()
        previous = inst.swap_tracer(private, tracing=True)
        assert inst.tracer is private
        inst.swap_tracer(*previous)
        assert inst.tracer is None
        assert inst.raw_tracer is not private

    def test_env_var_enables_default_instrumentation(self, monkeypatch):
        previous = get_default_instrumentation()
        monkeypatch.setenv("REPRO_TRACE", "1")
        try:
            set_default_instrumentation(None)
            assert get_default_instrumentation().tracing is True
        finally:
            set_default_instrumentation(previous)

    def test_env_var_off_values(self, monkeypatch):
        previous = get_default_instrumentation()
        monkeypatch.setenv("REPRO_TRACE", "0")
        try:
            set_default_instrumentation(None)
            assert get_default_instrumentation().tracing is False
        finally:
            set_default_instrumentation(previous)


class TestDisabledPath:
    def test_untraced_session_builds_no_span(self, monkeypatch):
        """Tracing off and no slow-query threshold: evaluations, a
        batch, a Postquel query and DBCRON fires construct no Span at
        all — the disabled path is counted, not timed."""
        monkeypatch.delenv("REPRO_SLOWLOG_SECONDS", raising=False)
        session = Session("Jan 1 1987", instrumentation=Instrumentation())
        session.query("create table log (t abstime)")
        session.rules.on_calendar("tuesdays",
                                  expression="[2]/DAYS:during:WEEKS",
                                  do=["append log (t = now.t)"])
        built = []
        real_init = Span.__init__

        def counting(span, *args, **kwargs):
            built.append(args[1] if len(args) > 1 else kwargs.get("name"))
            real_init(span, *args, **kwargs)

        monkeypatch.setattr(Span, "__init__", counting)
        session.eval("[2]/MONTHS:during:1993/YEARS")
        session.eval("[1]/WEEKS:during:1993/YEARS")
        session.eval_many(["WEEKS:during:1993/YEARS",
                           "[3]/DAYS:during:WEEKS:during:1993/YEARS"])
        assert session.cron.run_until(27) == 4  # Tuesdays 6, 13, 20, 27
        result = session.query("retrieve (l.t) from l in log")
        assert len(result.rows) == 4
        assert built == []
        # The counter sees spans once tracing is on.
        session.instrumentation.enable_tracing()
        session.eval("[2]/MONTHS:during:1994/YEARS")
        assert "registry.eval_expression" in built
