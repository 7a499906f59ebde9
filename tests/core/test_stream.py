"""Unit tests for the plan VM's live-interval accounting."""

from repro.core.stream import PeakTracker


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
