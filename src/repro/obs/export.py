"""JSON export of metrics snapshots and trace trees.

Everything observability collects is exportable as plain JSON so it can
be diffed across runs or shipped to an external sink.  Exports are self-describing: each payload
carries a ``kind`` discriminator.
"""

from __future__ import annotations

import json

from repro.obs.instrument import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span

__all__ = ["metrics_to_dict", "traces_to_dict", "export_json"]


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
