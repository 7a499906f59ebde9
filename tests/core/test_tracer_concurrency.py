"""Concurrency stress tests for the tracer's clear()/publish epoch fence.

The race PR 4 closed: a root span *started* before ``Tracer.clear()``
but finishing after it used to re-populate the supposedly emptied ring —
under ``eval_many``, a ``\\trace``-driven clear could observe dropped
traces resurfacing moments later.  ``clear()`` now bumps an epoch under
the ring lock and ``_publish`` discards stale-epoch roots, so after
``clear()`` returns no span that began before the call can enter the
ring.

Run with ``PYTHONFAULTHANDLER=1`` in CI so a deadlock dumps stacks
instead of timing out silently.
"""

from __future__ import annotations

import threading

from repro.obs.instrument import Instrumentation
from repro.obs.tracer import Tracer
from repro.session import Session

THREADS = 8


def _hammer(n_threads: int, worker) -> list:
    """Run ``worker(thread_index)`` on n threads; re-raise first failure."""
    barrier = threading.Barrier(n_threads)
    results: list = [None] * n_threads
    errors: list = []

    def run(index: int) -> None:
        try:
            barrier.wait()
            results[index] = worker(index)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


class TestClearPublishRace:
    def test_in_flight_spans_do_not_resurface_after_clear(self):
        """Spans started before clear() never publish into the new epoch.

        Publisher threads continuously open/close root spans; a clearer
        thread interleaves clear() calls and immediately samples the
        ring.  Every sampled span must belong to the *current* epoch:
        its identity must not be one the clearer already observed being
        started before its clear (we approximate by checking the ring
        is empty at the moment clear() returns, repeatedly, while
        publishers run full tilt).
        """
        tracer = Tracer(ring_size=256)
        stop = threading.Event()

        def publisher(index: int) -> int:
            published = 0
            while not stop.is_set():
                with tracer.span(f"work-{index}", n=published):
                    pass
                published += 1
            return published

        failures: list[str] = []

        def clearer(_index: int) -> int:
            clears = 0
            for _ in range(400):
                tracer.clear()
                # The fence: nothing started before the clear may be
                # visible now or later under this epoch *unless* it
                # started after the clear — which is fine; what must
                # never happen is a pre-clear epoch value in the ring.
                for span in tracer.recent():
                    if span._epoch < tracer._epoch:
                        failures.append(
                            f"stale epoch {span._epoch} in ring at "
                            f"epoch {tracer._epoch}")
                clears += 1
            stop.set()
            return clears

        def worker(index: int):
            if index == 0:
                return clearer(index)
            return publisher(index)

        results = _hammer(THREADS, worker)
        assert not failures, failures[:5]
        assert results[0] == 400
        assert sum(results[1:]) > 0, "publishers must have run"

    def test_clear_empties_ring_under_load(self):
        """clear() returning implies the pre-clear traces are gone."""
        tracer = Tracer(ring_size=64)
        for _ in range(50):
            with tracer.span("warm"):
                pass
        stop = threading.Event()

        def publisher(_index: int) -> None:
            while not stop.is_set():
                with tracer.span("noise"):
                    pass

        threads = [threading.Thread(target=publisher, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                before = tracer._epoch
                tracer.clear()
                for span in tracer.recent():
                    assert span._epoch > before
        finally:
            stop.set()
            for thread in threads:
                thread.join()

    def test_epoch_survives_span_reuse_patterns(self):
        """event() and nested spans respect the epoch fence too."""
        tracer = Tracer()
        with tracer.span("root"):
            tracer.clear()  # root is now stale
        assert tracer.recent() == []
        tracer.event("point")
        (published,) = tracer.recent()
        assert published.name == "point"


class TestEvalManyInteraction:
    def test_clear_between_batches_stays_empty(self):
        """The user-visible symptom: \\trace clear during eval_many.

        Three caller threads share one session, two running
        ``eval_many`` batches and the third plain ``eval`` calls, while
        a fourth thread clears the trace ring.
        """
        # Private bundle: enabling tracing here must not leak into the
        # process-default instrumentation other tests share.
        session = Session(instrumentation=Instrumentation())
        session.instrumentation.enable_tracing()
        scripts = [f"[{i}]/WEEKS:during:1993/YEARS" for i in range(1, 9)]
        session.eval_many(scripts)
        assert session.recent_traces(), "tracing produced a batch trace"
        tracer = session.instrumentation.raw_tracer

        stop = threading.Event()
        stale: list = []

        def clearing(_index: int) -> None:
            while not stop.is_set():
                tracer.clear()
                for span in tracer.recent():
                    if span._epoch < tracer._epoch:
                        stale.append(span)

        evaluators = 3
        finished: list = []

        def evaluating(index: int) -> None:
            try:
                for _ in range(3):
                    if index == evaluators:
                        for script in scripts:
                            session.eval(script)
                    else:
                        session.eval_many(scripts)
            finally:
                finished.append(index)
                if len(finished) == evaluators:
                    stop.set()

        _hammer(evaluators + 1,
                lambda i: clearing(i) if i == 0 else evaluating(i))
        assert sorted(finished) == [1, 2, 3]
        assert not stale
