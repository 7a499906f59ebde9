"""The instrumentation bundle wired once through every subsystem.

An :class:`Instrumentation` pairs one :class:`~repro.obs.metrics.
MetricsRegistry` with one :class:`~repro.obs.tracer.Tracer` and a
``tracing`` switch.  Subsystems hold the bundle and read
``instrumentation.tracer`` — which is **None while tracing is
disabled** — so the per-span cost of disabled tracing is a single
``if tracer is not None`` branch, with no no-op context manager in the
hot loop.  Metrics instruments stay live either way (counters are cheap
and power ``\\metrics`` / ``cache_stats``).

A process-wide default bundle backs components constructed without an
explicit one; the environment variable ``REPRO_TRACE`` (``1``/``on``)
enables tracing on it at creation, which is how the CI tracing pass runs
the whole test suite traced.
"""

from __future__ import annotations

import os
import threading

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer

__all__ = ["Instrumentation", "get_default_instrumentation",
           "set_default_instrumentation"]


class Instrumentation:
    """One metrics registry + one tracer + the tracing on/off switch."""

    def __init__(self, metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 tracing: bool = False) -> None:
        #: Always-live metrics registry.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else Tracer()
        self._tracing = bool(tracing)

    # -- tracing switch -------------------------------------------------------

    @property
    def tracing(self) -> bool:
        """True when spans are being recorded."""
        return self._tracing

    @tracing.setter
    def tracing(self, value: bool) -> None:
        """Flip the tracing switch."""
        self._tracing = bool(value)

    def enable_tracing(self) -> None:
        """Start recording spans."""
        self._tracing = True

    def disable_tracing(self) -> None:
        """Stop recording spans (hot paths fall back to the bare branch)."""
        self._tracing = False

    @property
    def tracer(self) -> Tracer | None:
        """The tracer while tracing is enabled, else **None**.

        Hot paths bind this once per operation and guard every span with
        ``if tracer is not None`` — the whole disabled-mode overhead.
        """
        return self._tracer if self._tracing else None

    @property
    def raw_tracer(self) -> Tracer:
        """The underlying tracer regardless of the switch (ring access)."""
        return self._tracer

    # -- swapping -------------------------------------------------------------

    def swap_tracer(self, tracer: Tracer, tracing: bool = True
                    ) -> tuple[Tracer, bool]:
        """Install ``tracer`` (and a switch state); returns the previous pair.

        Used by :meth:`repro.session.Session.profile` to capture one
        evaluation into a private trace tree and restore the previous
        state afterwards.
        """
        previous = (self._tracer, self._tracing)
        self._tracer = tracer
        self._tracing = tracing
        return previous

    def recent_traces(self) -> "list[Span]":
        """Finished root spans in the ring buffer, oldest first."""
        return self._tracer.recent()

    def __repr__(self) -> str:
        state = "on" if self._tracing else "off"
        return f"Instrumentation(tracing={state})"


# -- process-wide default ------------------------------------------------------

_default: Instrumentation | None = None
_default_lock = threading.Lock()


def _env_tracing() -> bool:
    return os.environ.get("REPRO_TRACE", "0").lower() in ("1", "on",
                                                          "true", "yes")


def get_default_instrumentation() -> Instrumentation:
    """The process-wide bundle (created on first use; see module docs)."""
    global _default
    with _default_lock:
        if _default is None:
            _default = Instrumentation(tracing=_env_tracing())
        return _default


def set_default_instrumentation(instrumentation: Instrumentation
                                ) -> Instrumentation | None:
    """Swap the process-wide bundle; returns the previous one."""
    global _default
    with _default_lock:
        previous = _default
        _default = instrumentation
        return previous
