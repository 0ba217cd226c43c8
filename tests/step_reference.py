"""Frozen step-signal references for ``StepSeries``.

Before every piecewise-constant signal shared :class:`repro.series.\
StepSeries`, telemetry folded its gauges through two streaming
primitives, ``TimeBins`` and ``StepAccumulator``, which never stored a
change point.  They are kept here unchanged in behaviour as the oracle of
the differential tests (``tests/test_series.py``) and of the telemetry
reference reader (``tests/obs/fold_reference.py``).  ``integral`` is
``StepSeries.integral``'s segment-by-segment loop as it was before it
clipped the end segments and summed the rest in one pass.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

__all__ = ["TimeBins", "StepAccumulator", "integral"]


class TimeBins:
    """Fixed-width interval bins accumulating ``value × seconds`` weight.

    ``add(t0, t1, value)`` distributes the segment's integral across the
    bins it overlaps; ``series()`` divides each bin by its covered span to
    yield the time-weighted mean per interval.
    """

    __slots__ = ("width", "sums")

    def __init__(self, width: float):
        if width <= 0:
            raise ValueError(f"bin width must be positive (got {width!r})")
        self.width = width
        self.sums: list[float] = []

    def add(self, t0: float, t1: float, value: float) -> None:
        """Accumulate ``value`` held over ``[t0, t1)`` into the bins."""
        if t1 <= t0:
            return
        w = self.width
        i0 = int(t0 / w)
        i1 = int(t1 / w)
        if i1 * w >= t1:
            i1 -= 1  # half-open [t0, t1): a boundary end touches no new bin
        sums = self.sums
        if len(sums) <= i1:
            sums.extend([0.0] * (i1 + 1 - len(sums)))
        if value == 0.0:
            return  # bins were extended so the series still covers the gap
        if i0 == i1:
            sums[i0] += value * (t1 - t0)
            return
        sums[i0] += value * ((i0 + 1) * w - t0)
        full = value * w
        for i in range(i0 + 1, i1):
            sums[i] += full
        sums[i1] += value * (t1 - i1 * w)

    def series(self, end: Optional[float] = None) -> list[float]:
        """Time-weighted mean per bin.

        Every bin divides by the full width except the last, which divides
        by the span actually covered (``end − k·width``) so a run ending
        mid-interval is not under-reported.  ``end=None`` uses full widths
        throughout.
        """
        if not self.sums:
            return []
        out = [s / self.width for s in self.sums]
        if end is not None:
            last = len(self.sums) - 1
            span = end - last * self.width
            if 0.0 < span < self.width:
                out[last] = self.sums[last] / span
        return out

    @property
    def integral(self) -> float:
        """Total accumulated ``value × seconds`` across all bins."""
        return sum(self.sums)


class StepAccumulator:
    """A piecewise-constant signal with exact integrals and binning.

    The signal holds ``value`` from the previous change point to the next;
    :meth:`set` / :meth:`delta` advance time, fold the finished segment into
    the integrals and bins, then change the value.  Simulation time is
    monotonic, so ``t`` never runs backwards; same-instant updates simply
    replace the value (zero-length segments contribute nothing).
    """

    __slots__ = ("value", "last_t", "integral", "busy_seconds", "peak", "bins")

    def __init__(self, bin_width: float, t0: float = 0.0, value: float = 0.0):
        self.value = value
        self.last_t = t0
        self.integral = 0.0
        self.busy_seconds = 0.0
        self.peak = value
        self.bins = TimeBins(bin_width)

    def advance(self, t: float) -> None:
        """Fold the segment ``[last_t, t)`` at the current value."""
        if t <= self.last_t:
            return
        dt = t - self.last_t
        v = self.value
        self.integral += v * dt
        if v > 0:
            self.busy_seconds += dt
        self.bins.add(self.last_t, t, v)
        self.last_t = t

    def set(self, t: float, value: float) -> None:
        self.advance(t)
        self.value = value
        if value > self.peak:
            self.peak = value

    def delta(self, t: float, dv: float) -> None:
        self.set(t, self.value + dv)

    def mean(self, end: Optional[float] = None) -> float:
        """Time-weighted mean over ``[0, end]`` (default: last change)."""
        horizon = end if end is not None else self.last_t
        if horizon <= 0:
            return 0.0
        pending = self.value * max(0.0, horizon - self.last_t)
        return (self.integral + pending) / horizon

    def series(self, end: Optional[float] = None) -> list[float]:
        """Per-bin time-weighted means, after flushing up to ``end``."""
        if end is not None:
            self.advance(end)
        return self.bins.series(end)


def integral(times: list, values: list, t0: float = 0.0, t1: Optional[float] = None) -> float:
    """Exact integral over ``[t0, t1]`` of the step series with change
    points ``times`` (from 0, increasing) and ``values``."""
    if t1 is None:
        t1 = times[-1]
    if t1 <= t0:
        return 0.0
    total = 0.0
    n = len(times)
    i = max(0, bisect_right(times, t0) - 1)
    while i < n:
        seg_start = max(times[i], t0)
        seg_end = times[i + 1] if i + 1 < n else t1
        seg_end = min(seg_end, t1)
        if seg_end > seg_start:
            total += values[i] * (seg_end - seg_start)
        if seg_end >= t1:
            break
        i += 1
    return total
