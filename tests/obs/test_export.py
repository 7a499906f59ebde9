"""JSON export of metrics and traces, and OTLP span-export shape."""

import json

import pytest

import repro.obs
from repro.obs.export import (
    export_json,
    metrics_to_dict,
    spans_to_otlp,
    traces_to_dict,
)
from repro.obs.instrument import Instrumentation
from repro.obs.tracer import Tracer


def _instrumented():
    inst = Instrumentation(tracing=True)
    inst.metrics.counter("c").inc(3)
    inst.metrics.histogram("h").observe(0.002)
    with inst.tracer.span("root", label="x"):
        with inst.tracer.span("child"):
            pass
    return inst


def test_metrics_to_dict():
    inst = _instrumented()
    data = metrics_to_dict(inst.metrics)
    assert data["kind"] == "metrics"
    assert data["metrics"]["c"] == 3
    assert data["metrics"]["h"]["count"] == 1


def test_traces_to_dict():
    inst = _instrumented()
    data = traces_to_dict(inst.recent_traces())
    assert data["kind"] == "traces"
    assert len(data["traces"]) == 1
    assert data["traces"][0]["name"] == "root"
    assert data["traces"][0]["children"][0]["name"] == "child"


def test_export_json_round_trips():
    inst = _instrumented()
    document = json.loads(export_json(inst))
    assert document["kind"] == "observability"
    assert document["tracing"] is True
    assert document["metrics"]["c"] == 3
    assert document["traces"][0]["name"] == "root"


def test_export_json_without_traces():
    inst = _instrumented()
    document = json.loads(export_json(inst, traces=False))
    assert "traces" not in document


def test_spans_to_otlp_is_reexported_from_the_package():
    assert repro.obs.spans_to_otlp is spans_to_otlp


class TestOtlpExport:
    def _trace(self):
        tracer = Tracer()
        with tracer.span("session.eval", source="WEEKS"):
            with tracer.span("plan.run", steps=3):
                pass
            with tracer.span("plan.finish"):
                pass
        return tracer.recent()

    def test_structure_and_parenting(self):
        doc = spans_to_otlp(self._trace())
        json.dumps(doc)  # JSON-serialisable end to end
        (resource,) = doc["resourceSpans"]
        (scope,) = resource["scopeSpans"]
        spans = scope["spans"]
        assert [s["name"] for s in spans] == \
            ["session.eval", "plan.run", "plan.finish"]
        root, child_a, child_b = spans
        assert "parentSpanId" not in root
        assert child_a["parentSpanId"] == root["spanId"]
        assert child_b["parentSpanId"] == root["spanId"]
        assert child_a["traceId"] == root["traceId"]
        assert len(root["traceId"]) == 32
        assert len(root["spanId"]) == 16

    def test_timestamps_ordered_nanos(self):
        doc = spans_to_otlp(self._trace())
        spans = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
        for span in spans:
            assert int(span["endTimeUnixNano"]) >= \
                int(span["startTimeUnixNano"]) > 0

    def test_error_meta_becomes_error_status(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        doc = spans_to_otlp(tracer.recent())
        (span,) = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert span["status"]["code"] == 2
        assert "nope" in span["status"]["message"]

    def test_attribute_typing(self):
        tracer = Tracer()
        with tracer.span("typed", n=3, ratio=0.5, on=True, label="x"):
            pass
        doc = spans_to_otlp(tracer.recent())
        (span,) = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
        values = {a["key"]: a["value"] for a in span["attributes"]}
        assert values["n"] == {"intValue": "3"}
        assert values["ratio"] == {"doubleValue": 0.5}
        assert values["on"] == {"boolValue": True}
        assert values["label"] == {"stringValue": "x"}

    def test_distinct_roots_get_distinct_trace_ids(self):
        tracer = Tracer()
        with tracer.span("one"):
            pass
        with tracer.span("two"):
            pass
        doc = spans_to_otlp(tracer.recent())
        spans = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert spans[0]["traceId"] != spans[1]["traceId"]
