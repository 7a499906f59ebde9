"""The structured event pipeline: schema, sinks, backpressure drops."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.telemetry import (
    CallbackSink,
    Event,
    FileSink,
    RingSink,
    TelemetryPipeline,
)


class TestEventSchema:
    def test_jsonl_round_trip(self):
        """to_json() -> json.loads() reproduces the exact schema."""
        pipeline = TelemetryPipeline()
        assert pipeline.emit("eval.finish", source="WEEKS",
                             duration_s=0.25, error=None)
        (event,) = pipeline.events()
        decoded = json.loads(event.to_json())
        assert decoded == event.to_dict()
        assert set(decoded) == {"ts", "seq", "kind", "fields"}
        assert decoded["kind"] == "eval.finish"
        assert decoded["seq"] == 1
        assert decoded["ts"] == pytest.approx(event.ts)
        assert decoded["fields"] == {"source": "WEEKS",
                                     "duration_s": 0.25, "error": None}

    def test_field_named_kind_does_not_collide(self):
        """The event kind is positional-only, so a *field* may be named
        ``kind`` — query.execute events carry the statement kind."""
        pipeline = TelemetryPipeline()
        assert pipeline.emit("query.execute", kind="Append", rows=3)
        (event,) = pipeline.events()
        assert event.kind == "query.execute"
        assert event.fields == {"kind": "Append", "rows": 3}

    def test_sequence_is_monotone(self):
        pipeline = TelemetryPipeline()
        for i in range(5):
            pipeline.emit("tick", i=i)
        assert [e.seq for e in pipeline.events()] == [1, 2, 3, 4, 5]

    def test_non_json_values_coerce_via_str(self):
        """Arbitrary field values fall back to str() in the JSONL line."""
        event = Event(ts=1.0, seq=1, kind="x", fields={"obj": object()})
        decoded = json.loads(event.to_json())
        assert decoded["fields"]["obj"].startswith("<object object")

    def test_to_jsonl_one_line_per_event(self):
        pipeline = TelemetryPipeline()
        pipeline.emit("a")
        pipeline.emit("b")
        lines = pipeline.to_jsonl().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["a", "b"]


class TestSinks:
    def test_ring_sink_bounded(self):
        pipeline = TelemetryPipeline(ring_capacity=3)
        for i in range(10):
            pipeline.emit("tick", i=i)
        kept = [e.fields["i"] for e in pipeline.events()]
        assert kept == [7, 8, 9]
        assert pipeline.emitted == 10

    def test_file_sink_writes_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        pipeline = TelemetryPipeline()
        sink = FileSink(str(path))
        pipeline.add_sink(sink)
        pipeline.emit("cache.hit", calendar="WEEKS")
        pipeline.emit("cache.miss", calendar="MONTHS")
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["kind"] == "cache.hit"
        assert json.loads(lines[1])["fields"] == {"calendar": "MONTHS"}

    def test_callback_sink_sees_every_event(self):
        seen = []
        pipeline = TelemetryPipeline()
        pipeline.add_sink(CallbackSink(seen.append))
        pipeline.emit("one")
        pipeline.emit("two")
        assert [e.kind for e in seen] == ["one", "two"]

    def test_remove_sink_detaches_but_keeps_ring(self):
        pipeline = TelemetryPipeline()
        extra = RingSink()
        pipeline.add_sink(extra)
        pipeline.emit("before")
        pipeline.remove_sink(extra)
        pipeline.remove_sink(pipeline.ring)  # the built-in ring stays
        pipeline.emit("after")
        assert [e.kind for e in extra.events()] == ["before"]
        assert [e.kind for e in pipeline.events()] == ["before", "after"]

    def test_events_filter_by_kind(self):
        pipeline = TelemetryPipeline()
        pipeline.emit("cache.hit")
        pipeline.emit("cache.miss")
        pipeline.emit("cache.hit")
        assert len(pipeline.events("cache.hit")) == 2
        assert len(pipeline.events()) == 3


class TestBackpressure:
    def test_failing_sink_counts_drop_not_raise(self):
        def boom(event):
            raise RuntimeError("disk full")

        pipeline = TelemetryPipeline()
        pipeline.add_sink(CallbackSink(boom))
        assert pipeline.emit("x")  # the ring still got it
        assert pipeline.dropped == 1
        assert pipeline.emitted == 1
        assert len(pipeline.events()) == 1

    def test_contended_emit_drops_instead_of_blocking(self):
        """An emitter that finds the lock held drops and returns False."""
        pipeline = TelemetryPipeline()
        entered = threading.Event()
        release = threading.Event()

        class _Blocking:
            def accept(self, event):
                entered.set()
                release.wait(timeout=5)

        pipeline.add_sink(_Blocking())
        slow = threading.Thread(target=pipeline.emit, args=("slow",))
        slow.start()
        try:
            assert entered.wait(timeout=5)
            # The pipeline lock is held by the slow emitter right now.
            assert pipeline.emit("contended") is False
            assert pipeline.dropped == 1
        finally:
            release.set()
            slow.join(timeout=5)
        assert [e.kind for e in pipeline.events()] == ["slow"]

    def test_emit_under_foreign_lock_never_deadlocks(self):
        """Leaf-lock contract: emitting while holding other locks is fine."""
        pipeline = TelemetryPipeline()
        foreign = threading.Lock()
        with foreign:
            assert pipeline.emit("held")
        assert pipeline.dropped == 0

    def test_clear_drops_ring_only(self):
        pipeline = TelemetryPipeline()
        extra = RingSink()
        pipeline.add_sink(extra)
        pipeline.emit("x")
        pipeline.clear()
        assert pipeline.events() == []
        assert len(extra.events()) == 1
        assert pipeline.emitted == 1


class TestDisabledPipeline:
    def test_session_without_telemetry_emits_nothing(self):
        from repro.obs.instrument import Instrumentation
        from repro.session import Session

        session = Session(instrumentation=Instrumentation(),
                          holiday_years=(1987, 1996))
        session.eval("DAYS:during:[1]/MONTHS:during:1993/YEARS",
                     window=("Jan 1 1993", "Dec 31 1994"))
        assert session.telemetry is None
        assert session.registry.matcache.pipeline is None
        assert session.events() == []
