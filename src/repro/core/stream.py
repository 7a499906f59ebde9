"""Live-interval accounting for bounded-memory plan pipelines.

Optimised plan pipelines (:class:`repro.lang.plan.PipelineForEachStep`)
evaluate a foreach's left chain per reference interval over a narrowed
window, so only one reference's neighbourhood is live at a time.
:class:`PeakTracker` is the opt-in accounting the plan VM uses to report
the peak number of materialised intervals such a run held.
"""

from __future__ import annotations

__all__ = ["PeakTracker"]


class PeakTracker:
    """Incremental live-interval accounting for bounded-memory reporting.

    Attached to an evaluation's ``stats`` dict when the caller opts in
    (``stats["peak_live_intervals"]`` present); kernels and the plan VM
    call :meth:`add`/:meth:`sub` as intervals become live / are released,
    and the peak is folded into the stats dict.
    """

    __slots__ = ("live", "peak")

    def __init__(self) -> None:
        self.live = 0
        self.peak = 0

    def add(self, n: int) -> None:
        """Account ``n`` intervals becoming live; update the peak."""
        self.live += n
        if self.live > self.peak:
            self.peak = self.live

    def sub(self, n: int) -> None:
        """Account ``n`` intervals being released."""
        self.live -= n

    def publish(self, stats: dict) -> None:
        """Fold the observed peak into ``stats["peak_live_intervals"]``."""
        if self.peak > stats.get("peak_live_intervals", 0):
            stats["peak_live_intervals"] = self.peak
