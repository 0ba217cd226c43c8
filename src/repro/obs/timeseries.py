"""Time-series primitives for the telemetry collector.

Three building blocks, all driven by *simulation* time (never wall clock)
and all exact — no sampling error anywhere:

* :class:`TimeBins` — accumulates a step function's time integral into
  fixed-width interval bins, so a continuously-evolving signal (running
  monotasks, queue depth) resamples into a fixed-interval series without
  storing every edge.
* :class:`StepAccumulator` — a piecewise-constant signal observed at its
  change points (grant/release edges, queue push/pop).  Maintains the exact
  running integral ``∫value·dt``, the busy time ``∫[value>0]·dt``, the peak,
  and feeds every segment into a :class:`TimeBins`.
* :class:`StreamingHistogram` — fixed-boundary bucket counts with sum /
  count / min / max, Prometheus-classic-histogram shaped, plus interpolated
  quantile estimates for dashboards.

Determinism: every update is a float accumulation in event order.  Because
the optimized scheduler and the tests' frozen reference tick
(``tests/scheduler/reference.py``) fire the exact same event sequence, the
resulting series are bit-identical between them.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional, Sequence

__all__ = ["TimeBins", "StepAccumulator", "StreamingHistogram", "LATENCY_BOUNDS"]

#: default histogram boundaries (seconds) for latency-class observations:
#: log-ish spacing from 1 ms to 30 s, chosen around the 250 ms scheduling
#: interval so allocation latencies spread over several buckets
LATENCY_BOUNDS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)


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


class StreamingHistogram:
    """Fixed-boundary streaming histogram (Prometheus classic shape).

    ``bounds`` are the upper bin edges; observations land in the first
    bucket whose bound is ≥ the value, with one overflow bucket above the
    last bound (the ``+Inf`` bucket at exposition time).
    """

    __slots__ = ("bounds", "counts", "count", "total", "vmin", "vmax")

    def __init__(self, bounds: Sequence[float] = LATENCY_BOUNDS):
        b = tuple(float(x) for x in bounds)
        if not b or any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = b
        self.counts = [0] * (len(b) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated quantile estimate (exact min/max at the ends).

        Assumes observations are uniform within a bucket; the overflow
        bucket reports the observed maximum.  Returns 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if seen + c >= rank:
                lo = self.bounds[i - 1] if i > 0 else min(self.vmin, self.bounds[0])
                if i >= len(self.bounds):
                    return self.vmax
                hi = self.bounds[i]
                frac = (rank - seen) / c
                est = lo + (hi - lo) * frac
                # clamp: interpolation must not escape the observed range
                # (e.g. N identical samples would otherwise spread across
                # their bucket instead of reporting the sample value)
                return min(max(est, self.vmin), self.vmax)
            seen += c
        return self.vmax

    def as_dict(self) -> dict:
        """JSON-ready snapshot: cumulative Prometheus-style buckets."""
        cumulative = []
        running = 0
        for bound, c in zip(self.bounds, self.counts):
            running += c
            cumulative.append([bound, running])
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
            "mean": self.mean,
            "p25": self.quantile(0.25),
            "p50": self.quantile(0.50),
            "p75": self.quantile(0.75),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": cumulative,  # [upper_bound, cumulative_count] pairs
        }
