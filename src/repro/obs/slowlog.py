"""The slow-query log: a bounded ring of evaluations that ran long.

Evaluations whose wall time reaches a configurable threshold capture
their plan text, window, cache-stats snapshot and (when tracing) the
span tree of the evaluation itself into a bounded ring, surfaced by
``Session.slow_queries()`` and the ``\\slowlog`` CLI command.
"""

from __future__ import annotations

import threading
import time

from collections import deque
from dataclasses import dataclass, field

__all__ = ["SlowQuery", "SlowQueryLog"]


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
                 capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("the slow-query log needs capacity >= 1")
        if threshold_s is not None and threshold_s < 0:
            raise ValueError("the slow-query threshold must be >= 0")
        self.threshold_s = threshold_s
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
                     via: str = "eval", window=None, plan_text=None,
                     cache_stats=None, trace=None,
                     error: str | None = None) -> SlowQuery | None:
        """Record when ``duration_s`` reaches the threshold.

        This is the only threshold check.  ``window``, ``plan_text``,
        ``cache_stats`` and ``trace`` may each be a value or a
        zero-argument callable: rendering a plan costs a compile and a
        span tree costs a walk, so a callable is only invoked for
        evaluations that actually crossed the line.  A callable that
        raises leaves its field None — a slow *malformed* script still
        gets a record.
        """
        threshold = self.threshold_s
        if threshold is None or duration_s < threshold:
            return None
        record = SlowQuery(ts=time.time(), source=source,
                           duration_s=duration_s, threshold_s=threshold,
                           via=via, window=_resolve(window),
                           plan_text=_resolve(plan_text),
                           cache_stats=dict(_resolve(cache_stats) or {}),
                           trace=_resolve(trace), error=error)
        with self._lock:
            self._ring.append(record)
            self._captured += 1
        return record

    def records(self) -> "list[SlowQuery]":
        """Captured records, oldest first."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        """Drop every record (the captured total is kept)."""
        with self._lock:
            self._ring.clear()


def _resolve(value):
    """``value``, or what it returns when callable (None if it raises)."""
    if not callable(value):
        return value
    try:
        return value()
    except Exception:
        return None
