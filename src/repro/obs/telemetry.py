"""The structured event pipeline and the slow-query log.

Metrics (PR 2) aggregate; this module *records*: every interesting
moment in the stack — an evaluation starting, a cache miss, a rule
firing — becomes one typed :class:`Event` pushed
through a :class:`TelemetryPipeline` into pluggable sinks (an in-memory
ring, a JSONL file, an arbitrary callback).  The POSTGRES rule system
kept statistics tables an operator could query from outside; the
pipeline is that posture for the whole reproduction, feeding
``Session.events()`` and the JSONL files an operator can tail.

**Backpressure drops, never blocks.**  Emission sites sit on hot paths
(the materialisation cache's hit path emits under its stripe lock), so
:meth:`TelemetryPipeline.emit` takes its lock with a *non-blocking*
acquire: when another thread is mid-emit, the event is counted into
``dropped`` and discarded instead of waiting.  A sink that raises, or a
file sink whose disk write fails, likewise counts a drop.  The pipeline
lock is a **leaf lock** — fan-out never calls back into the stack — so
emitting while holding any other lock (matcache stripes, the DBCRON
schedule lock) cannot deadlock; see docs/IMPLEMENTATION_NOTES.md §8.

The **slow-query log** rides on the pipeline: evaluations whose wall
time reaches a configurable threshold capture their plan text, window,
cache-stats snapshot and (when tracing) span tree into a bounded ring,
surfaced by ``Session.slow_queries()`` and the ``\\slowlog`` CLI
command.
"""

from __future__ import annotations

import json
import threading
import time

from collections import deque
from dataclasses import dataclass, field

#: Module-level binding: one global lookup saved per emitted event.
_wall_clock = time.time

__all__ = [
    "Event", "RingSink", "FileSink", "CallbackSink", "TelemetryPipeline",
    "SlowQuery", "SlowQueryLog",
]


class Event:
    """One structured telemetry event.

    The JSONL schema is exactly the :meth:`to_dict` shape: ``ts`` (wall
    clock, seconds), ``seq`` (per-pipeline monotone sequence number),
    ``kind`` (dotted type name, e.g. ``eval.finish``), and ``fields``
    (the typed payload; values must be JSON-serialisable or coercible
    via ``str``).

    A hand-rolled ``__slots__`` value class rather than a (frozen)
    dataclass: one Event is constructed per :meth:`TelemetryPipeline.emit`
    on hot paths, and dataclass ``__init__``/``object.__setattr__``
    dispatch is measurable there (the <5% enabled-overhead gate,
    ``benchmarks/test_bench_obs.py::TestTelemetryOverhead``).
    """

    __slots__ = ("ts", "seq", "kind", "fields")

    def __init__(self, ts: float, seq: int, kind: str,
                 fields: dict) -> None:
        self.ts = ts
        self.seq = seq
        self.kind = kind
        self.fields = fields

    def __eq__(self, other) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (self.ts, self.seq, self.kind, self.fields) == \
            (other.ts, other.seq, other.kind, other.fields)

    def __repr__(self) -> str:
        return (f"Event(ts={self.ts!r}, seq={self.seq!r}, "
                f"kind={self.kind!r}, fields={self.fields!r})")

    def to_dict(self) -> dict:
        """The JSONL schema shape (see the class docstring)."""
        return {"ts": self.ts, "seq": self.seq, "kind": self.kind,
                "fields": dict(self.fields)}

    def to_json(self) -> str:
        """One JSONL line (no trailing newline)."""
        return json.dumps(self.to_dict(), default=str,
                          separators=(",", ":"))


class RingSink:
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("the ring sink must hold at least 1 event")
        self._ring: deque = deque(maxlen=capacity)

    def accept(self, event: Event) -> None:
        """Buffer ``event``, evicting the oldest past capacity."""
        self._ring.append(event)

    def events(self) -> "list[Event]":
        """Buffered events, oldest first."""
        return list(self._ring)

    def clear(self) -> None:
        """Drop every buffered event."""
        self._ring.clear()


class FileSink:
    """Appends one JSONL line per event to ``path``.

    The file handle is opened lazily and kept open (line-buffered);
    write failures propagate to the pipeline, which counts them as
    drops.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None

    def accept(self, event: Event) -> None:
        """Append one JSONL line (opens the file on first write)."""
        if self._handle is None:
            self._handle = open(self.path, "a", buffering=1,
                                encoding="utf-8")
        self._handle.write(event.to_json() + "\n")

    def close(self) -> None:
        """Close the file handle (reopened lazily on the next write)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class CallbackSink:
    """Calls ``fn(event)`` for every event (exceptions count as drops)."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def accept(self, event: Event) -> None:
        """Invoke the callback with ``event``."""
        self.fn(event)


class TelemetryPipeline:
    """Fans typed events out to sinks without ever blocking an emitter.

    A pipeline always carries one :class:`RingSink` (``ring_capacity``
    events) so ``Session.events()`` has something to read even
    before any sink is configured; further sinks attach via
    :meth:`add_sink`.  Thread-safe; see the module docstring for the
    drop-instead-of-block contract.
    """

    def __init__(self, ring_capacity: int = 1024) -> None:
        self.ring = RingSink(ring_capacity)
        self._sinks: list = [self.ring]
        self._lock = threading.Lock()
        self._drop_lock = threading.Lock()
        self._dropped = 0
        self._emitted = 0
        self._seq = 0

    # -- emission -------------------------------------------------------------

    def emit(self, kind: str, /, **fields) -> bool:
        """Record one event; False when it was dropped.

        Never raises and never blocks: lock contention and sink failures
        are both absorbed into the ``dropped`` counter.  ``kind`` is
        positional-only so an event may carry a *field* named ``kind``
        (e.g. ``query.execute``'s statement kind).
        """
        if not self._lock.acquire(False):
            self._count_drop()
            return False
        try:
            self._seq += 1
            event = Event(_wall_clock(), self._seq, kind, fields)
            delivered = False
            failed = 0
            for sink in self._sinks:
                try:
                    sink.accept(event)
                    delivered = True
                except Exception:
                    failed += 1
            self._emitted += 1
        finally:
            self._lock.release()
        if failed:
            self._count_drop(failed)
        return delivered

    def _count_drop(self, n: int = 1) -> None:
        with self._drop_lock:
            self._dropped += n

    # -- sinks ----------------------------------------------------------------

    def add_sink(self, sink) -> None:
        """Attach a sink (RingSink/FileSink/CallbackSink or duck-typed)."""
        with self._lock:
            self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        """Detach a sink previously added (the built-in ring stays)."""
        with self._lock:
            if sink is not self.ring and sink in self._sinks:
                self._sinks.remove(sink)

    # -- introspection --------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events lost to contention or sink failure."""
        return self._dropped

    @property
    def emitted(self) -> int:
        """Events successfully fanned out (at least attempted)."""
        return self._emitted

    def events(self, kind: str | None = None) -> "list[Event]":
        """Ring-buffered events, oldest first, optionally one kind."""
        events = self.ring.events()
        if kind is None:
            return events
        return [e for e in events if e.kind == kind]

    def to_jsonl(self) -> str:
        """The ring buffer rendered as a JSONL document."""
        return "\n".join(e.to_json() for e in self.ring.events())

    def clear(self) -> None:
        """Drop the ring buffer (other sinks and counters are kept)."""
        with self._lock:
            self.ring.clear()

    def __repr__(self) -> str:
        return (f"TelemetryPipeline(emitted={self._emitted}, "
                f"dropped={self._dropped}, sinks={len(self._sinks)})")


@dataclass
class SlowQuery:
    """One evaluation that crossed the slow-query threshold."""

    #: Wall-clock time the record was captured (seconds since epoch).
    ts: float
    #: The script/expression/calendar-name text that was evaluated.
    source: str
    #: Measured wall time of the evaluation, seconds.
    duration_s: float
    #: The threshold in force when the record was captured.
    threshold_s: float
    #: Which entry point: "eval" | "eval_many" | "query".
    via: str = "eval"
    #: The evaluation window in day ticks, when known.
    window: tuple | None = None
    #: Compiled plan rendering (None when no plan / rendering failed).
    plan_text: str | None = None
    #: Materialisation-cache counters at capture time.
    cache_stats: dict = field(default_factory=dict)
    #: Span tree of the evaluation (None when tracing was off).
    trace: dict | None = None
    #: Error text when the slow evaluation also failed.
    error: str | None = None

    def to_dict(self) -> dict:
        """JSON-ready dict of one slow-query record."""
        return {
            "ts": self.ts,
            "source": self.source,
            "duration_s": self.duration_s,
            "threshold_s": self.threshold_s,
            "via": self.via,
            "window": list(self.window) if self.window else None,
            "plan_text": self.plan_text,
            "cache_stats": dict(self.cache_stats),
            "trace": self.trace,
            "error": self.error,
        }


class SlowQueryLog:
    """A bounded, thread-safe ring of :class:`SlowQuery` records.

    ``threshold_s`` is inclusive: an evaluation whose duration equals
    the threshold exactly is recorded (so ``threshold_s=0.0`` captures
    everything — the forced-low setting the acceptance tests use).
    ``threshold_s=None`` disables capture entirely.
    """

    def __init__(self, threshold_s: float | None,
                 capacity: int = 64,
                 pipeline: TelemetryPipeline | None = None) -> None:
        if capacity < 1:
            raise ValueError("the slow-query log needs capacity >= 1")
        if threshold_s is not None and threshold_s < 0:
            raise ValueError("the slow-query threshold must be >= 0")
        self.threshold_s = threshold_s
        self.pipeline = pipeline
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._captured = 0

    @property
    def enabled(self) -> bool:
        return self.threshold_s is not None

    @property
    def captured(self) -> int:
        """Total records captured (the ring keeps only the newest)."""
        return self._captured

    def maybe_record(self, source: str, duration_s: float, *,
                     via: str = "eval", window: tuple | None = None,
                     plan_text=None, cache_stats: dict | None = None,
                     trace: dict | None = None,
                     error: str | None = None) -> SlowQuery | None:
        """Record when ``duration_s`` reaches the threshold.

        ``plan_text`` may be a string or a zero-argument callable —
        rendering a plan costs a compile, so it is only invoked for
        evaluations that actually crossed the line (and its failures are
        swallowed: a slow *malformed* script still gets a record).
        """
        threshold = self.threshold_s
        if threshold is None or duration_s < threshold:
            return None
        if callable(plan_text):
            try:
                plan_text = plan_text()
            except Exception:
                plan_text = None
        record = SlowQuery(ts=time.time(), source=source,
                           duration_s=duration_s, threshold_s=threshold,
                           via=via, window=window, plan_text=plan_text,
                           cache_stats=dict(cache_stats or {}),
                           trace=trace, error=error)
        with self._lock:
            self._ring.append(record)
            self._captured += 1
        if self.pipeline is not None:
            self.pipeline.emit("slowquery", source=source,
                               duration_s=duration_s,
                               threshold_s=threshold, via=via)
        return record

    def records(self) -> "list[SlowQuery]":
        """Captured records, oldest first."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        """Drop every record (the captured total is kept)."""
        with self._lock:
            self._ring.clear()
