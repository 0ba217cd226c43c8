"""The streaming histogram behind telemetry's latency and JCT summaries.

:class:`StreamingHistogram` keeps fixed-boundary bucket counts with sum /
count / min / max, Prometheus-classic-histogram shaped, plus interpolated
quantile estimates for dashboards.  Observations arrive in event order, so
a histogram is deterministic.  Telemetry's gauges are step series
(:class:`repro.series.StepSeries`).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

__all__ = ["StreamingHistogram", "LATENCY_BOUNDS"]

#: default histogram boundaries (seconds) for latency-class observations:
#: log-ish spacing from 1 ms to 30 s, chosen around the 250 ms scheduling
#: interval so allocation latencies spread over several buckets
LATENCY_BOUNDS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)


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
