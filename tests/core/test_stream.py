"""Unit tests for the plan VM's live-interval accounting and the
streaming tiling generator (``CalendarSystem.iter_generate``)."""

import pytest

from repro.core import CalendarSystem
from repro.core.stream import PeakTracker


@pytest.fixture(scope="module")
def sys87():
    return CalendarSystem.starting("Jan 1 1987")


class TestPeakTracker:
    def test_peak_accounting(self):
        tracker = PeakTracker()
        tracker.add(10)
        tracker.sub(5)
        tracker.add(3)
        assert tracker.live == 8
        assert tracker.peak == 10
        stats = {"peak_live_intervals": 4}
        tracker.publish(stats)
        assert stats["peak_live_intervals"] == 10
        tracker.publish({"peak_live_intervals": 99})


class TestIterGenerate:
    @pytest.mark.parametrize("cal,unit,window,mode", [
        ("MONTHS", "DAYS", (1, 400), "clip"),
        ("MONTHS", "DAYS", (1, 400), "cover"),
        ("YEARS", "DAYS", (-200, 900), "cover"),
        ("WEEKS", "DAYS", (1, 100), "clip"),
        ("WEEKS", "WEEKS", (1, 50), "clip"),
        ("DAYS", "HOURS", (1, 480), "clip"),
        ("MONTHS", "HOURS", (1, 2000), "cover"),
        ("YEARS", "MONTHS", (1, 30), "clip"),
    ])
    def test_matches_generate(self, sys87, cal, unit, window, mode):
        eager = sys87.generate(cal, unit, window, mode=mode)
        streamed = list(sys87.iter_generate(cal, unit, window, mode=mode))
        assert [(iv.lo, iv.hi) for iv, _ in streamed] == \
            [(iv.lo, iv.hi) for iv in eager.elements]
        labels = [label for _, label in streamed]
        if eager.labels is None:
            assert all(label is None for label in labels)
        else:
            assert labels == list(eager.labels)
