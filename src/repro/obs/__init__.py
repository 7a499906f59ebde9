"""Observability: metrics, tracing, the slow-query log and exporters.

The subsystem behind the unified :class:`repro.Session` instrumentation
API — see :mod:`repro.obs.metrics` (counters/gauges/histograms, plus
labelled families with cardinality governance),
:mod:`repro.obs.tracer` (nested spans, trace ring buffer),
:mod:`repro.obs.instrument` (the bundle wired through interpreter, plan
VM, planner, materialisation cache, query executor and DBCRON),
:mod:`repro.obs.slowlog` (the slow-query log),
:mod:`repro.obs.profiler` (the continuous wall-clock sampling
profiler) and :mod:`repro.obs.export` (JSON snapshots and OTLP-style
span export).
"""

from repro.obs.export import (
    export_json,
    metrics_to_dict,
    spans_to_otlp,
    traces_to_dict,
)
from repro.obs.instrument import (
    Instrumentation,
    get_default_instrumentation,
    set_default_instrumentation,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    DEFAULT_MAX_SERIES,
    Counter,
    CounterFamily,
    Gauge,
    GaugeFamily,
    Histogram,
    HistogramFamily,
    MetricsRegistry,
)
from repro.obs.profiler import DEFAULT_HERTZ, SamplingProfiler
from repro.obs.slowlog import SlowQuery, SlowQueryLog
from repro.obs.tracer import Span, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "CounterFamily", "GaugeFamily", "HistogramFamily",
    "DEFAULT_LATENCY_BOUNDS", "DEFAULT_MAX_SERIES",
    "Span", "Tracer",
    "Instrumentation", "get_default_instrumentation",
    "set_default_instrumentation",
    "metrics_to_dict", "traces_to_dict", "export_json", "spans_to_otlp",
    "SlowQuery", "SlowQueryLog",
    "SamplingProfiler", "DEFAULT_HERTZ",
]
