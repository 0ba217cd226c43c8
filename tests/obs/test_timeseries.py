"""Unit tests for the streaming histogram and for the frozen step-signal
accumulators that ``tests/test_series.py`` checks ``StepSeries`` against."""

import pytest

from repro.obs.timeseries import LATENCY_BOUNDS, StreamingHistogram

from ..step_reference import StepAccumulator, TimeBins


class TestTimeBins:
    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            TimeBins(0.0)

    def test_empty_series(self):
        assert TimeBins(1.0).series() == []
        assert TimeBins(1.0).integral == 0.0

    def test_single_bin_segment(self):
        b = TimeBins(1.0)
        b.add(0.25, 0.75, 2.0)
        assert b.integral == pytest.approx(1.0)
        assert b.series() == [pytest.approx(1.0)]

    def test_segment_spanning_bins_prorates_edges(self):
        b = TimeBins(1.0)
        b.add(0.5, 2.5, 1.0)  # half of bin0, all of bin1, half of bin2
        assert b.sums == [pytest.approx(0.5), pytest.approx(1.0), pytest.approx(0.5)]
        assert b.integral == pytest.approx(2.0)

    def test_zero_value_still_extends_coverage(self):
        """A zero-valued segment creates bins so the series covers the gap."""
        b = TimeBins(1.0)
        b.add(0.0, 3.0, 0.0)
        b.add(3.0, 4.0, 2.0)
        assert b.series() == [0.0, 0.0, 0.0, pytest.approx(2.0)]

    def test_last_bin_divides_by_covered_span(self):
        b = TimeBins(1.0)
        b.add(0.0, 1.5, 1.0)  # last bin only covered for 0.5 s
        assert b.series(end=1.5) == [pytest.approx(1.0), pytest.approx(1.0)]
        # without end, the partial last bin under-reports (documented)
        assert b.series() == [pytest.approx(1.0), pytest.approx(0.5)]

    def test_backwards_segment_ignored(self):
        b = TimeBins(1.0)
        b.add(2.0, 1.0, 5.0)
        assert b.series() == []


class TestStepAccumulator:
    def test_integral_and_busy_seconds(self):
        acc = StepAccumulator(1.0)
        acc.delta(1.0, 1.0)   # 0 active during [0,1)
        acc.delta(3.0, 1.0)   # 1 active during [1,3)
        acc.delta(4.0, -2.0)  # 2 active during [3,4)
        acc.advance(5.0)      # 0 active during [4,5)
        assert acc.integral == pytest.approx(1.0 * 2 + 2.0 * 1)
        assert acc.busy_seconds == pytest.approx(3.0)
        assert acc.peak == 2.0
        assert acc.mean(5.0) == pytest.approx(4.0 / 5.0)

    def test_mean_covers_pending_segment(self):
        acc = StepAccumulator(1.0)
        acc.set(0.0, 2.0)
        # value 2.0 held from t=0, never advanced: mean must include it
        assert acc.mean(4.0) == pytest.approx(2.0)

    def test_mean_empty(self):
        assert StepAccumulator(1.0).mean() == 0.0
        assert StepAccumulator(1.0).mean(0.0) == 0.0

    def test_same_instant_updates_replace_value(self):
        acc = StepAccumulator(1.0)
        acc.set(1.0, 5.0)
        acc.set(1.0, 1.0)  # zero-length segment contributes nothing
        acc.advance(2.0)
        assert acc.integral == pytest.approx(1.0)
        assert acc.peak == 5.0

    def test_series_matches_bins(self):
        acc = StepAccumulator(1.0)
        acc.delta(0.5, 1.0)
        acc.delta(2.5, -1.0)
        s = acc.series(end=3.0)
        assert s == [pytest.approx(0.5), pytest.approx(1.0), pytest.approx(0.5)]


class TestStreamingHistogram:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            StreamingHistogram(())
        with pytest.raises(ValueError):
            StreamingHistogram((1.0, 1.0))

    def test_empty_snapshot_is_all_zero(self):
        d = StreamingHistogram(LATENCY_BOUNDS).as_dict()
        assert d["count"] == 0
        for k in ("sum", "min", "max", "mean", "p25", "p50", "p75", "p95", "p99"):
            assert d[k] == 0.0

    def test_identical_samples_quantiles_clamp_to_sample(self):
        """Interpolation must not spread N identical samples across their
        bucket — every quantile of {0,0,...,0} is exactly 0."""
        h = StreamingHistogram((0.5, 1.0))
        for _ in range(10):
            h.observe(0.0)
        for q in (0.25, 0.5, 0.75, 0.95, 0.99):
            assert h.quantile(q) == 0.0

    def test_quantile_bounds_checked(self):
        h = StreamingHistogram((1.0,))
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_overflow_bucket_reports_observed_max(self):
        h = StreamingHistogram((1.0,))
        h.observe(50.0)
        assert h.quantile(0.5) == 50.0
        d = h.as_dict()
        assert d["max"] == 50.0
        assert d["buckets"] == [[1.0, 0]]

    def test_quantiles_monotone_and_in_range(self):
        h = StreamingHistogram(LATENCY_BOUNDS)
        for i in range(1, 200):
            h.observe(i * 0.01)
        qs = [h.quantile(q) for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)]
        assert qs == sorted(qs)
        assert all(h.vmin <= v <= h.vmax for v in qs)

    def test_as_dict_cumulative_buckets(self):
        h = StreamingHistogram((1.0, 2.0))
        for v in (0.5, 1.5, 1.7, 5.0):
            h.observe(v)
        d = h.as_dict()
        assert d["buckets"] == [[1.0, 1], [2.0, 3]]
        assert d["count"] == 4
        assert d["sum"] == pytest.approx(8.7)
