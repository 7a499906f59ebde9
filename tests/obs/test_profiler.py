"""The continuous sampling profiler: folded stacks, bounds, windows."""

import gc
import re
import threading
import time

import pytest

from repro.obs.profiler import OTHER_STACK, SamplingProfiler


def _busy_marker_fn(stop_event):
    """A recognisable frame to find in sampled stacks."""
    while not stop_event.is_set():
        sum(i * i for i in range(200))


class TestLifecycle:
    def test_construction_validates(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hertz=0)
        with pytest.raises(ValueError):
            SamplingProfiler(max_stacks=0)
        with pytest.raises(ValueError):
            SamplingProfiler(max_depth=0)

    def test_start_stop_idempotent(self):
        def sampler_threads():
            return {t for t in threading.enumerate()
                    if t.name == "repro-profiler"}

        # Other sessions' samplers (e.g. under REPRO_PROFILE=1) may be
        # winding down meanwhile — assert on the threads started, not
        # on the total.
        before = sampler_threads()
        profiler = SamplingProfiler(hertz=200)
        assert not profiler.running
        profiler.start()
        profiler.start()  # no-op
        assert profiler.running
        assert sampler_threads() - before == {profiler._thread}
        profiler.stop()
        profiler.stop()  # no-op
        assert not profiler.running

    def test_a_dropped_profiler_ends_its_thread(self):
        # A profiler dropped without stop() — a session never closed —
        # must not leave its thread sampling the process for good.
        profiler = SamplingProfiler(hertz=500)
        profiler.start()
        thread = profiler._thread
        del profiler
        gc.collect()
        thread.join(timeout=2.0)
        assert not thread.is_alive()

    def test_samples_survive_stop_and_clear_drops_them(self):
        profiler = SamplingProfiler(hertz=500)
        profiler.start()
        time.sleep(0.1)
        profiler.stop()
        assert profiler.samples > 0
        profiler.clear()
        assert profiler.samples == 0
        assert profiler.counts() == {}


class TestSampling:
    def test_busy_thread_appears_in_folded_stacks(self):
        stop = threading.Event()
        worker = threading.Thread(target=_busy_marker_fn, args=(stop,),
                                  daemon=True)
        worker.start()
        profiler = SamplingProfiler(hertz=500)
        profiler.start()
        time.sleep(0.3)
        profiler.stop()
        stop.set()
        worker.join()
        folded = profiler.folded()
        assert "_busy_marker_fn" in folded

    def test_folded_format_is_stack_space_count(self):
        stop = threading.Event()
        worker = threading.Thread(target=_busy_marker_fn, args=(stop,),
                                  daemon=True)
        worker.start()
        profiler = SamplingProfiler(hertz=500)
        profiler.start()
        time.sleep(0.2)
        profiler.stop()
        stop.set()
        worker.join()
        lines = profiler.folded().splitlines()
        assert lines
        line_re = re.compile(r"^\S.* \d+$")
        counts = []
        for line in lines:
            assert line_re.match(line), line
            stack, _, count = line.rpartition(" ")
            assert ";" in stack or ":" in stack
            counts.append(int(count))
        assert counts == sorted(counts, reverse=True), "hottest first"

    def test_stacks_are_root_first(self):
        stop = threading.Event()
        worker = threading.Thread(target=_busy_marker_fn, args=(stop,),
                                  daemon=True)
        worker.start()
        profiler = SamplingProfiler(hertz=500)
        profiler.start()
        time.sleep(0.2)
        profiler.stop()
        stop.set()
        worker.join()
        marker_stacks = [s for s in profiler.counts()
                         if "_busy_marker_fn" in s]
        assert marker_stacks
        # The thread bootstrap frames precede the marker leaf.
        for stack in marker_stacks:
            frames = stack.split(";")
            marker_index = next(i for i, f in enumerate(frames)
                                if "_busy_marker_fn" in f)
            assert any("threading" in f for f in frames[:marker_index])

    def test_own_thread_excluded(self):
        profiler = SamplingProfiler(hertz=500)
        profiler.start()
        time.sleep(0.15)
        profiler.stop()
        assert "_sample_once" not in profiler.folded()

    def test_bounded_stack_table_collapses_into_other(self):
        profiler = SamplingProfiler(max_stacks=2)
        with profiler._lock:
            pass  # table manipulated directly: simulate sampling sweeps
        for stack in ("a;b", "a;c", "a;d", "a;e", "a;d"):
            with profiler._lock:
                profiler._samples += 1
                if stack in profiler._counts:
                    profiler._counts[stack] += 1
                elif len(profiler._counts) < profiler.max_stacks:
                    profiler._counts[stack] = 1
                else:
                    profiler._counts[OTHER_STACK] = \
                        profiler._counts.get(OTHER_STACK, 0) + 1
                    profiler._overflowed += 1
        counts = profiler.counts()
        assert set(counts) == {"a;b", "a;c", OTHER_STACK}
        assert counts[OTHER_STACK] == 3
        assert profiler.overflowed == 3

    def test_top_aggregates_leaves(self):
        profiler = SamplingProfiler()
        profiler._counts = {"a;leaf": 3, "b;x;leaf": 2, "c;other": 1}
        top = profiler.top(2)
        assert top == [("leaf", 5), ("other", 1)]


class TestProfileFor:
    def test_stats_shape(self):
        profiler = SamplingProfiler()
        stats = profiler.stats()
        assert stats["running"] is False
        assert stats["samples"] == 0
        assert stats["hertz"] == profiler.hertz
        assert set(stats) == {"running", "hertz", "samples", "stacks",
                              "max_stacks", "overflowed", "errors"}
