"""The one piecewise-constant signal: a step series and its integrals.

Every time-varying quantity the reproduction accounts for holds its value
between change points: the cores a machine drives or reserves (the X and Z
of the paper's SE = X/Y and UE = Z/X, §5), the monotasks a worker runs, a
queue's depth, the jobs in the admission queue, the autoscaler's active
workers.  :class:`StepSeries` stores the change points, 16 bytes each in two
``array.array`` columns, and answers every query those layers make, exactly:

* the time integral and mean over a window (SE/UE, mean utilization);
* the busy time ``∫[value>0]·dt`` and the peak (telemetry's gauges);
* fixed-width interval means (:meth:`StepSeries.bins`, telemetry's series)
  and window resampling (:meth:`StepSeries.resample`, the utilization
  figures).

A leaf module: it imports nothing from the package, so the simulator, the
cluster and the observability layer can all record into it without an
import cycle.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right

__all__ = ["StepSeries"]

_FLOAT_POINT, _INT_POINT = array("d", (0.0,)), array("q", (0,))  # copied: faster than array()


class StepSeries:
    """A piecewise-constant series ``value(t)`` from ``t = 0``; right-continuous
    steps.  ``times`` is an ``array("d")``; ``values`` is an ``array("q")`` of
    ints if the initial value is an int (a float is refused), else an
    ``array("d")`` (a recorded int becomes a float).

    >>> jobs, cores = StepSeries(0), StepSeries()
    >>> jobs.record(1.0, 3); cores.record(1.0, 2)
    >>> jobs.peak, cores.peak, cores.values.itemsize
    (3, 2.0, 8)
    """

    __slots__ = ("times", "values", "_replaced", "_replaced_at")

    def __init__(self, initial: float = 0.0):
        self.times = _FLOAT_POINT.__copy__()
        self.values = values = (_INT_POINT if isinstance(initial, int) else _FLOAT_POINT).__copy__()
        if initial:  # the copied point already holds 0
            values[0] = initial
        #: the largest value a same-instant change replaced (the initial
        #: value counts as replaced at index 0) and the index it held,
        #: first maximum in recording order
        self._replaced = values[0]
        self._replaced_at = 0

    def record(self, time: float, value: float) -> None:
        """Set the series value from ``time`` onward.  A value equal to the
        current one is no change; a change at the last change's instant
        replaces that change's value."""
        values = self.values
        if value == values[-1]:
            return
        if value != value:
            raise ValueError(f"series value is NaN at time {time}")
        times = self.times
        last_t = times[-1]
        if time > last_t:
            values.append(value)  # first: an int series refuses a float
            times.append(time)
        elif time == last_t:
            # the replaced value leaves the series but still counts as a peak
            if values[-1] > self._replaced:
                self._replaced = values[-1]
                self._replaced_at = len(values) - 1
            values[-1] = value
        else:
            raise ValueError(f"trace time {time} is not at or after the last change at {last_t}")

    def add(self, time: float, delta: float) -> None:
        """Record ``current + delta`` at ``time`` (counter-style usage)."""
        self.record(time, self.values[-1] + delta)

    @property
    def peak(self) -> float:
        """The largest value the series ever held, same-instant transients
        included (a push and a pop at one instant still peak the queue).
        Of equal values, the first recorded is returned (``1`` or ``1.0``)."""
        values = self.values
        top = max(values)
        replaced = self._replaced
        if top > replaced:
            return top
        if replaced > top:
            return replaced
        # a value replaced at index i was recorded before values[i]
        return replaced if self._replaced_at <= values.index(top) else top

    def integral(self, t0: float = 0.0, t1: float | None = None) -> float:
        """Exact integral of the series over ``[t0, t1]``."""
        times, values = self.times, self.values
        n = len(times)
        if t1 is None:
            t1 = times[-1]
        if t1 <= t0:
            return 0.0
        # segment i holds t0, segment k holds t1 (the last one if t1 is
        # past the end): clip those two, sum the ones between whole, left
        # to right
        i = max(0, bisect_right(times, t0) - 1)
        k = max(i, bisect_left(times, t1, i) - 1)
        start = max(times[i], t0)
        if i == k:
            end = t1 if i + 1 == n else min(times[i + 1], t1)
            return 0.0 + values[i] * (end - start) if end > start else 0.0
        total = 0.0 + values[i] * (times[i + 1] - start)
        for value, a, b in zip(values[i + 1:k], times[i + 1:k], times[i + 2:k + 1]):
            total += value * (b - a)
        return total + values[k] * (t1 - times[k])

    def mean(self, t0: float = 0.0, t1: float | None = None) -> float:
        """Time-average over ``[t0, t1]``; 0 for an empty window."""
        if t1 is None:
            t1 = self.times[-1]
        span = t1 - t0
        if span <= 0:
            return 0.0
        return self.integral(t0, t1) / span

    def busy(self, end: float) -> float:
        """Time over ``[0, end)`` during which the value was positive."""
        total = 0.0
        times = self.times
        for t0, t1, value in zip(times, times[1:] + array("d", (end,)), self.values):
            if t0 >= end:
                break
            if t1 > end:
                t1 = end
            if value > 0 and t1 > t0:
                total += t1 - t0
        return total

    def bins(self, width: float, end: float) -> list[float]:
        """Time-weighted mean per interval ``[k·width, (k+1)·width)`` over
        ``[0, end)``.  A segment ending on a bin boundary touches no later
        bin; a zero-valued segment still extends the list; the last bin
        divides by the span it covers, so a run ending mid-interval is not
        under-reported."""
        if not 0.0 < width < float("inf"):
            raise ValueError(f"bin width must be positive and finite (got {width!r})")
        sums: list[float] = []
        times = self.times
        for t0, t1, value in zip(times, times[1:] + array("d", (end,)), self.values):
            if t0 >= end:
                break
            if t1 > end:
                t1 = end
            if t1 <= t0:
                continue
            i0 = int(t0 / width)
            i1 = int(t1 / width)
            if i1 * width >= t1:
                i1 -= 1  # half-open [t0, t1): a boundary end touches no new bin
            if len(sums) <= i1:
                sums.extend([0.0] * (i1 + 1 - len(sums)))
            if value == 0.0:
                continue
            if i0 == i1:
                sums[i0] += value * (t1 - t0)
                continue
            sums[i0] += value * ((i0 + 1) * width - t0)
            full = value * width
            for i in range(i0 + 1, i1):
                sums[i] += full
            sums[i1] += value * (t1 - i1 * width)
        out = [s / width for s in sums]
        if sums:
            last = len(sums) - 1
            span = end - last * width
            if 0.0 < span < width:
                out[last] = sums[last] / span
        return out

    def resample(self, t0: float, t1: float, dt: float) -> tuple[list[float], list[float]]:
        """Average the series over consecutive windows of width ``dt``.

        Returns (window start times, window averages) covering [t0, t1).
        This is how the utilization figures are produced (1 s windows, like
        the sar-style sampling the paper plots).
        """
        if not 0.0 < dt < float("inf"):
            raise ValueError(f"resample dt must be positive and finite (got {dt!r})")
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
