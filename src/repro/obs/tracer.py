"""Span-based execution tracing with nested spans and a trace ring.

A :class:`Span` measures one unit of work with
:func:`time.perf_counter`; spans nest (per thread) to form a tree, and
every finished *root* span is appended to a bounded ring buffer of
recent traces (:meth:`Tracer.recent`).

The tracer is designed so that **hot paths pay a single branch when
tracing is off**: instrumented code holds a ``tracer`` reference that is
``None`` when disabled (see :class:`repro.obs.instrument.
Instrumentation`) and wraps work in ``with tracer.span(...)`` only
behind an ``if tracer is not None`` check.  There is deliberately no
always-on no-op context manager in the hot loops.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque

__all__ = ["Span", "Tracer"]


class Span:
    """One timed unit of work; a node in a trace tree.

    Spans are context managers: entering starts the clock and pushes the
    span on the tracer's per-thread stack, exiting stops the clock, pops
    the stack and — for root spans — publishes the finished trace to the
    tracer's ring buffer.
    """

    __slots__ = ("name", "meta", "start", "end", "children", "trace_id",
                 "_tracer", "_parent", "_spans", "_dropped",
                 "_epoch")

    def __init__(self, tracer: "Tracer", name: str, meta: dict) -> None:
        self.name = name
        self.meta = meta
        self.start: float | None = None
        self.end: float | None = None
        #: 32-hex trace id; assigned on enter (new for roots, inherited
        #: from the parent otherwise), so an exported span names the
        #: trace it belongs to.
        self.trace_id: str | None = None
        self.children: list[Span] = []
        self._tracer = tracer
        self._parent: Span | None = None
        self._spans = 0      # descendants created (maintained on roots)
        self._dropped = 0    # descendants dropped past the budget
        #: Ring epoch at creation; a clear() between this span's start
        #: and its publish invalidates it (see Tracer.clear).
        self._epoch = tracer._epoch

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Span":
        """Start timing and become the current span of this thread."""
        stack = self._tracer._stack()
        if stack:
            self._parent = stack[-1]
            self._parent.children.append(self)
            self.trace_id = self._parent.trace_id
        else:
            self.trace_id = self._tracer._new_trace_id()
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Stop timing; publish to the ring when this was a root span.

        Exceptions propagate (never swallowed) and are noted in ``meta``;
        underscore-prefixed exception classes are treated as control-flow
        signals (the interpreter's return signal) and not recorded.
        """
        self.end = time.perf_counter()
        if exc_type is not None and not exc_type.__name__.startswith("_"):
            self.meta["error"] = f"{exc_type.__name__}: {exc}"
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if self._parent is None:
            if self._dropped:
                self.meta["dropped_spans"] = self._dropped
            self._tracer._publish(self)
        # Drop the upward/tracer references so finished trees are plain
        # parent->children DAGs: no cycles, collectible by refcounting.
        self._parent = None
        self._tracer = None
        return False

    # -- measurements --------------------------------------------------------

    @property
    def duration(self) -> float:
        """Wall time in seconds (0.0 while still running)."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Wall time minus the time spent in child spans."""
        return max(0.0, self.duration -
                   sum(child.duration for child in self.children))

    def walk(self):
        """Yield this span then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def leaves(self) -> "list[Span]":
        """Every descendant span (or self) without children."""
        return [span for span in self.walk() if not span.children]

    def find(self, name: str) -> "list[Span]":
        """Every span in the tree whose name equals ``name``."""
        return [span for span in self.walk() if span.name == name]

    # -- rendering ------------------------------------------------------------

    def tree(self, _indent: int = 0, _total: float | None = None) -> str:
        """Indented multi-line rendering of the span tree with timings."""
        total = _total if _total is not None else (self.duration or 1e-12)
        share = self.duration / total if total else 0.0
        meta = ""
        if self.meta:
            pairs = ", ".join(f"{k}={v}" for k, v in self.meta.items())
            meta = f"  [{pairs}]"
        line = (f"{'  ' * _indent}{self.name:<32} "
                f"{self.duration * 1e3:9.3f} ms  {share:6.1%}{meta}")
        lines = [line]
        for child in self.children:
            lines.append(child.tree(_indent + 1, total))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready nested dict of the span tree."""
        return {
            "name": self.name,
            "duration_s": self.duration,
            "self_s": self.self_time,
            "meta": dict(self.meta),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.duration * 1e3:.3f} ms, "
                f"{len(self.children)} children)")


class _DroppedSpan:
    """What :meth:`Tracer.span` returns past the per-trace budget.

    A timing-free stand-in so instrumented ``with`` blocks keep working;
    the root span's ``meta["dropped_spans"]`` counts how many of these
    were handed out.
    """

    __slots__ = ()

    @property
    def meta(self) -> dict:
        """A fresh dict each read: meta written to a dropped span is lost."""
        return {}

    def __enter__(self) -> "_DroppedSpan":
        """No-op."""
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """No-op; exceptions propagate."""
        return False


_DROPPED = _DroppedSpan()


class Tracer:
    """Creates nested spans and keeps a ring buffer of recent traces.

    ``max_spans`` bounds every individual trace: once a root has spawned
    that many descendants (a runaway script loop, say), further spans in
    that trace become no-ops and the root's ``meta["dropped_spans"]``
    records the shortfall — keeping trace memory O(ring_size ×
    max_spans) no matter what the traced program does.
    """

    def __init__(self, ring_size: int = 64, max_spans: int = 5000) -> None:
        if ring_size < 1:
            raise ValueError("the trace ring must hold at least 1 trace")
        if max_spans < 1:
            raise ValueError("the per-trace span budget must be >= 1")
        self.ring_size = ring_size
        self.max_spans = max_spans
        self._ring: deque = deque(maxlen=ring_size)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Monotone root-trace counter; next() is atomic under the GIL.
        self._trace_ids = itertools.count(1)
        #: Bumped by clear() under the ring lock; spans stamp it at
        #: creation and _publish discards stale-epoch roots, so a trace
        #: started before a clear can never resurface after it.
        self._epoch = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **meta) -> Span:
        """A new span; use as ``with tracer.span("plan.run"):``.

        Returns a no-op stand-in once the current trace has exhausted
        its ``max_spans`` budget.
        """
        stack = self._stack()
        if stack:
            root = stack[0]
            root._spans += 1
            if root._spans >= self.max_spans:
                root._dropped += 1
                return _DROPPED
        return Span(self, name, meta)

    def event(self, name: str, **meta) -> Span:
        """Record an instantaneous (zero-duration) point event.

        Attached as a child of the current span when one is open,
        otherwise published to the ring as a degenerate root trace.
        Counts against the same per-trace budget as real spans.
        """
        span = Span(self, name, meta)
        now = time.perf_counter()
        span.start = span.end = now
        stack = self._stack()
        if stack:
            span.trace_id = stack[0].trace_id
            root = stack[0]
            root._spans += 1
            if root._spans >= self.max_spans:
                root._dropped += 1
                return span  # budget spent: timed but not attached
            span._parent = None
            span._tracer = None
            stack[-1].children.append(span)
        else:
            span.trace_id = self._new_trace_id()
            span._tracer = None
            self._publish(span)
        return span

    def _new_trace_id(self) -> str:
        return f"{next(self._trace_ids):032x}"

    def current(self) -> Span | None:
        """The innermost open span of this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _publish(self, span: Span) -> None:
        """Append a finished root span unless a clear() superseded it.

        The epoch check happens under the ring lock: without it, a
        caller's thread finishing a span concurrently with
        :meth:`clear` could re-populate the ring *after* the
        clear returned — the caller would observe supposedly dropped
        traces reappearing.
        """
        with self._lock:
            if span._epoch == self._epoch:
                self._ring.append(span)

    def recent(self) -> "list[Span]":
        """Finished root spans, oldest first (bounded by ``ring_size``)."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        """Drop every recorded trace, including in-flight ones.

        Root spans already *started* but not yet finished belong to the
        old epoch and are discarded when they publish — after clear()
        returns, no span that began before the call can enter the ring
        (the race PR 4 closed; stress-tested in
        ``tests/core/test_tracer_concurrency.py``).
        """
        with self._lock:
            self._ring.clear()
            self._epoch += 1
