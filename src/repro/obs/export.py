"""JSON export of metrics snapshots and trace trees.

Everything observability collects is exportable as plain JSON so it can
be diffed across runs or shipped to an external sink.  Exports are self-describing: each payload
carries a ``kind`` discriminator.  :func:`spans_to_otlp` turns finished
:class:`~repro.obs.tracer.Span` trees (``Tracer.recent()``) into an
OTLP/JSON-shaped document (``resourceSpans`` → ``scopeSpans`` →
``spans``) with deterministic ids and wall-clock-anchored nanosecond
timestamps, so the trace ring can be shipped to any OTLP-compatible
viewer.
"""

from __future__ import annotations

import json
import time

from repro.obs.instrument import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span

__all__ = ["metrics_to_dict", "traces_to_dict", "export_json",
           "spans_to_otlp"]


def metrics_to_dict(metrics: MetricsRegistry) -> dict:
    """A JSON-ready snapshot of every instrument in ``metrics``."""
    return {"kind": "metrics", "metrics": metrics.snapshot()}


def traces_to_dict(spans: "list[Span]") -> dict:
    """A JSON-ready dump of finished trace trees."""
    return {"kind": "traces", "traces": [span.to_dict() for span in spans]}


def export_json(instrumentation: Instrumentation, *,
                traces: bool = True, indent: int | None = 2) -> str:
    """Serialise an instrumentation bundle's state to a JSON document.

    Includes the metrics snapshot always and the trace ring when
    ``traces`` is true (span trees can be large).
    """
    payload: dict = {
        "kind": "observability",
        "tracing": instrumentation.tracing,
        "metrics": instrumentation.metrics.snapshot(),
    }
    if traces:
        payload["traces"] = [span.to_dict()
                             for span in instrumentation.recent_traces()]
    return json.dumps(payload, indent=indent, default=str)


# -- OTLP-style span export ----------------------------------------------------


def _otlp_value(value) -> dict:
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def _otlp_attributes(meta: dict) -> list:
    return [{"key": str(key), "value": _otlp_value(value)}
            for key, value in meta.items()]


def spans_to_otlp(spans: "list[Span]",
                  service_name: str = "repro") -> dict:
    """Finished span trees as an OTLP/JSON-shaped document.

    Span timestamps are :func:`time.perf_counter` readings; they are
    anchored to the wall clock with a single offset computed at export
    time, so cross-span *relative* timing is exact and absolute times
    are approximate (good enough for a trace viewer, not for auditing).
    Ids are deterministic counters — one trace id per root span.
    """
    offset = time.time() - time.perf_counter()

    def nanos(value: float | None) -> str:
        if value is None:
            return "0"
        return str(int((value + offset) * 1e9))

    flat: list[dict] = []
    next_id = 0

    def walk(span: Span, trace_id: str, parent_id: str) -> None:
        nonlocal next_id
        next_id += 1
        span_id = f"{next_id:016x}"
        entry = {
            "traceId": trace_id,
            "spanId": span_id,
            "name": span.name,
            "kind": 1,  # SPAN_KIND_INTERNAL
            "startTimeUnixNano": nanos(span.start),
            "endTimeUnixNano": nanos(span.end),
            "attributes": _otlp_attributes(span.meta),
            "status": ({"code": 2, "message": str(span.meta["error"])}
                       if "error" in span.meta else {"code": 0}),
        }
        if parent_id:
            entry["parentSpanId"] = parent_id
        flat.append(entry)
        for child in span.children:
            walk(child, trace_id, span_id)

    for index, root in enumerate(spans, start=1):
        walk(root, root.trace_id or f"{index:032x}", "")

    return {
        "resourceSpans": [{
            "resource": {"attributes": [
                {"key": "service.name",
                 "value": {"stringValue": service_name}},
            ]},
            "scopeSpans": [{
                "scope": {"name": "repro.obs"},
                "spans": flat,
            }],
        }],
    }
