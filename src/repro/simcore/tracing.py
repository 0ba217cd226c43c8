"""Step-function time-series recording.

Resource monitors record piecewise-constant signals: "3 cores busy from
t=2.0", "1 core busy from t=7.5", ...  This module stores those signals
compactly and supports the two queries the metrics layer needs:

* the exact time integral (for SE/UE accounting), and
* resampling onto a regular grid (for the utilization figures).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

__all__ = ["StepSeries", "TraceSet"]


class StepSeries:
    """A piecewise-constant series ``value(t)``; right-continuous steps."""

    __slots__ = ("times", "values", "_last")

    def __init__(self, initial: float = 0.0):
        self.times: list[float] = [0.0]
        self.values: list[float] = [float(initial)]
        self._last = float(initial)

    def record(self, time: float, value: float) -> None:
        """Set the series value from ``time`` onward."""
        value = float(value)
        if value == self._last:
            return
        last_t = self.times[-1]
        if time < last_t:
            raise ValueError(f"trace time going backwards: {time} < {last_t}")
        if time == last_t:
            # overwrite a same-instant change; keep the latest value
            self.values[-1] = value
        else:
            self.times.append(float(time))
            self.values.append(value)
        self._last = value

    def add(self, time: float, delta: float) -> None:
        """Record ``current + delta`` at ``time`` (counter-style usage)."""
        self.record(time, self._last + delta)

    @property
    def current(self) -> float:
        return self._last

    def value_at(self, t: float) -> float:
        """Series value at time ``t`` (right-continuous)."""
        if t < self.times[0]:
            return self.values[0]
        idx = bisect_right(self.times, t) - 1
        return self.values[idx]

    def integral(self, t0: float = 0.0, t1: float | None = None) -> float:
        """Exact integral of the series over ``[t0, t1]``."""
        if t1 is None:
            t1 = self.times[-1]
        if t1 <= t0:
            return 0.0
        total = 0.0
        times, values = self.times, self.values
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

    def mean(self, t0: float = 0.0, t1: float | None = None) -> float:
        """Time-average over ``[t0, t1]``; 0 for an empty window."""
        if t1 is None:
            t1 = self.times[-1]
        span = t1 - t0
        if span <= 0:
            return 0.0
        return self.integral(t0, t1) / span

    def resample(self, t0: float, t1: float, dt: float) -> tuple[list[float], list[float]]:
        """Average the series over consecutive windows of width ``dt``.

        Returns (window start times, window averages) covering [t0, t1).
        This is how the utilization figures are produced (1 s windows, like
        the sar-style sampling the paper plots).
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        grid: list[float] = []
        avgs: list[float] = []
        t = t0
        while t < t1 - 1e-12:
            end = min(t + dt, t1)
            grid.append(t)
            avgs.append(self.integral(t, end) / (end - t))
            t += dt
        return grid, avgs

    def __len__(self) -> int:
        return len(self.times)


class TraceSet:
    """A named collection of :class:`StepSeries` (one per machine/resource)."""

    def __init__(self) -> None:
        self._series: dict[str, StepSeries] = {}

    def series(self, name: str, initial: float = 0.0) -> StepSeries:
        s = self._series.get(name)
        if s is None:
            s = StepSeries(initial)
            self._series[name] = s
        return s

    def names(self) -> list[str]:
        return sorted(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __getitem__(self, name: str) -> StepSeries:
        return self._series[name]

    def aggregate(self, names: Iterable[str]) -> StepSeries:
        """Sum several step series into a new one (e.g. cluster-wide cores)."""
        selected = [self._series[n] for n in names]
        out = StepSeries(sum(s.values[0] for s in selected))
        events = sorted({t for s in selected for t in s.times})
        for t in events:
            if t == 0.0:
                continue
            out.record(t, sum(s.value_at(t) for s in selected))
        return out
