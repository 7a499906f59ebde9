"""A stdlib-only continuous wall-clock sampling profiler.

A daemon thread wakes ``hertz`` times per second, walks every live
thread's stack via :func:`sys._current_frames` (its own excluded), and
folds each stack into a ``root;child;leaf`` key whose hit count is
accumulated in a bounded table.  The folded output
(:meth:`SamplingProfiler.folded`) is the collapsed-stack text format
consumed by ``flamegraph.pl`` and speedscope directly.

Design constraints:

* **No dependencies, no signals.**  ``sys._current_frames`` is a
  CPython-blessed introspection hook; sampling from a thread (rather
  than SIGPROF) keeps the profiler usable alongside arbitrary
  application signal handling and on any thread.
* **Bounded memory.**  At most ``max_stacks`` distinct stacks are
  retained; further unique stacks collapse into the reserved
  ``(other)`` key and are tallied in :attr:`overflowed` — a runaway
  eval workload cannot grow the table without bound.
* **Cheap enough to leave on.**  One sample walks a handful of frames
  per thread; at the default ~97 Hz the overhead on the evaluation
  workload is gated below 2% (``benchmarks/test_bench_obs.py``).

The sampler is wall-clock: a thread blocked on a lock or socket is
sampled exactly like a running one, which is what you want when hunting
stalls in a threaded engine.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import weakref

__all__ = ["SamplingProfiler", "DEFAULT_HERTZ"]

#: Default sampling rate.  A prime near 100 Hz avoids lockstep with
#: common periodic work (timers, 10ms schedulers) that would bias
#: samples toward or away from the periodic code.
DEFAULT_HERTZ = 97.0

#: Reserved folded-stack key unique stacks collapse into past the cap.
OTHER_STACK = "(other)"


class SamplingProfiler:
    """Continuous folded-stack sampler over ``sys._current_frames``.

    ``start()``/``stop()`` control a daemon sampling thread and
    :meth:`folded` renders the aggregate as collapsed-stack text.  All
    methods are thread-safe; ``start`` and ``stop`` are idempotent.
    """

    def __init__(self, hertz: float = DEFAULT_HERTZ, *,
                 max_stacks: int = 10_000, max_depth: int = 64) -> None:
        if hertz <= 0:
            raise ValueError("sampling rate must be positive")
        if max_stacks < 1:
            raise ValueError("max_stacks must be >= 1")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.hertz = float(hertz)
        self.interval = 1.0 / self.hertz
        self.max_stacks = max_stacks
        self.max_depth = max_depth
        self._counts: dict[str, int] = {}
        self._samples = 0
        self._overflowed = 0
        self._errors = 0
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def running(self) -> bool:
        """True while the sampling thread is alive."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Start the daemon sampling thread (no-op when running)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            self._stop_event = threading.Event()
            self._thread = threading.Thread(
                target=self._run,
                args=(weakref.ref(self), self._stop_event, self.interval),
                name="repro-profiler", daemon=True)
            self._started_at = time.perf_counter()
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling and join the thread (no-op when stopped)."""
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is None or not thread.is_alive():
            return
        self._stop_event.set()
        thread.join(timeout=2.0)

    def clear(self) -> None:
        """Drop every accumulated sample (the sampler keeps running)."""
        with self._lock:
            self._counts.clear()
            self._samples = 0
            self._overflowed = 0
            self._errors = 0

    # -- sampling -----------------------------------------------------------

    @staticmethod
    def _run(ref: "weakref.ref[SamplingProfiler]", stop: threading.Event,
             interval: float) -> None:
        """The sampling thread.  It holds its profiler weakly between
        samples: a profiler dropped without :meth:`stop` (say, by a
        session never closed) ends its thread at the next tick instead
        of sampling every thread of the process for as long as it
        runs."""
        own_id = threading.get_ident()
        while not stop.wait(interval):
            profiler = ref()
            if profiler is None:
                return
            try:
                profiler._sample_once(own_id)
            except Exception:
                with profiler._lock:
                    profiler._errors += 1
            del profiler

    def _sample_once(self, own_id: int) -> None:
        frames = sys._current_frames()
        stacks: list[str] = []
        for thread_id, frame in frames.items():
            if thread_id == own_id:
                continue
            parts: list[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                code = frame.f_code
                parts.append(
                    f"{os.path.basename(code.co_filename)}:{code.co_name}")
                frame = frame.f_back
                depth += 1
            if parts:
                parts.reverse()  # folded stacks are root-first
                stacks.append(";".join(parts))
        del frames
        with self._lock:
            self._samples += 1
            for stack in stacks:
                if stack in self._counts:
                    self._counts[stack] += 1
                elif len(self._counts) < self.max_stacks:
                    self._counts[stack] = 1
                else:
                    self._counts[OTHER_STACK] = \
                        self._counts.get(OTHER_STACK, 0) + 1
                    self._overflowed += 1

    # -- reading ------------------------------------------------------------

    @property
    def samples(self) -> int:
        """Number of sampling sweeps taken so far."""
        return self._samples

    @property
    def overflowed(self) -> int:
        """Thread-stacks collapsed into ``(other)`` past ``max_stacks``."""
        return self._overflowed

    @property
    def errors(self) -> int:
        """Sampling sweeps that raised (swallowed, counted)."""
        return self._errors

    def counts(self) -> "dict[str, int]":
        """A copy of the folded-stack hit counts."""
        with self._lock:
            return dict(self._counts)

    def folded(self) -> str:
        """Collapsed-stack text: one ``stack count`` line, hottest first.

        The format ``flamegraph.pl`` and speedscope ingest directly.
        """
        ordered = sorted(self.counts().items(),
                         key=lambda item: (-item[1], item[0]))
        return "\n".join(f"{stack} {count}" for stack, count in ordered)

    def top(self, n: int = 10) -> "list[tuple[str, int]]":
        """The ``n`` hottest leaf frames with their sample counts."""
        leaves: dict[str, int] = {}
        for stack, count in self.counts().items():
            leaf = stack.rsplit(";", 1)[-1]
            leaves[leaf] = leaves.get(leaf, 0) + count
        ordered = sorted(leaves.items(), key=lambda item: (-item[1], item[0]))
        return ordered[:n]

    def stats(self) -> dict:
        """Sampler state for ``\\prof`` and JSON surfaces."""
        with self._lock:
            return {
                "running": self.running,
                "hertz": self.hertz,
                "samples": self._samples,
                "stacks": len(self._counts),
                "max_stacks": self.max_stacks,
                "overflowed": self._overflowed,
                "errors": self._errors,
            }

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (f"SamplingProfiler({state}, {self.hertz:g} Hz, "
                f"samples={self._samples})")
