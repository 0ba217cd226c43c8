"""Tests for StepSeries (``repro.series``, re-exported by ``repro.simcore``)."""

from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.simcore import StepSeries


def _value_at(s: StepSeries, t: float) -> float:
    """The series value at ``t >= 0`` (right-continuous)."""
    return s.values[bisect_right(s.times, t) - 1]


def test_initial_value_and_current():
    s = StepSeries(3.0)
    assert list(s.times) == [0.0] and list(s.values) == [3.0]
    assert s.peak == 3.0
    assert s.integral(0.0, 100.0) == 300.0


def test_record_and_value_at():
    s = StepSeries(0.0)
    s.record(1.0, 2.0)
    s.record(3.0, 5.0)
    assert list(s.times) == [0.0, 1.0, 3.0]
    assert list(s.values) == [0.0, 2.0, 5.0]
    assert s.integral(0.0, 10.0) == 2.0 * 2 + 5.0 * 7
    assert s.integral(0.0, 1.0) == 0.0  # right-continuous: 2.0 holds from t=1
    assert s.integral(2.9, 3.1) == pytest.approx(2.0 * 0.1 + 5.0 * 0.1)


def test_same_instant_overwrite_keeps_latest():
    s = StepSeries(0.0)
    s.record(1.0, 2.0)
    s.record(1.0, 7.0)
    assert list(s.values) == [0.0, 7.0]
    assert len(s) == 2  # no duplicate breakpoints
    assert s.peak == 7.0


def test_redundant_record_is_ignored():
    s = StepSeries(1.0)
    s.record(5.0, 1.0)
    assert len(s) == 1


def test_time_going_backwards_raises():
    s = StepSeries(0.0)
    s.record(2.0, 1.0)
    with pytest.raises(ValueError):
        s.record(1.0, 3.0)


def test_add_is_counter_style():
    s = StepSeries(0.0)
    s.add(1.0, 2.0)
    s.add(2.0, 3.0)
    s.add(3.0, -1.0)
    assert list(s.values) == [0.0, 2.0, 5.0, 4.0]
    assert s.peak == 5.0


def test_integral_simple_rectangle():
    s = StepSeries(0.0)
    s.record(1.0, 4.0)
    s.record(3.0, 0.0)
    assert s.integral(0.0, 5.0) == pytest.approx(8.0)
    assert s.integral(1.0, 3.0) == pytest.approx(8.0)
    assert s.integral(2.0, 2.5) == pytest.approx(2.0)
    assert s.integral(4.0, 5.0) == 0.0


def test_integral_partial_window_before_first_change():
    s = StepSeries(2.0)
    s.record(10.0, 0.0)
    assert s.integral(5.0, 8.0) == pytest.approx(6.0)


def test_integral_empty_or_inverted_window():
    s = StepSeries(1.0)
    assert s.integral(5.0, 5.0) == 0.0
    assert s.integral(5.0, 3.0) == 0.0


def test_mean():
    s = StepSeries(0.0)
    s.record(0.0, 10.0)
    s.record(5.0, 0.0)
    assert s.mean(0.0, 10.0) == pytest.approx(5.0)
    assert s.mean(0.0, 0.0) == 0.0


def test_resample_windows():
    s = StepSeries(0.0)
    s.record(1.0, 10.0)
    s.record(2.0, 0.0)
    grid, avgs = s.resample(0.0, 4.0, 1.0)
    assert grid == [0.0, 1.0, 2.0, 3.0]
    assert avgs == [pytest.approx(0.0), pytest.approx(10.0), pytest.approx(0.0), pytest.approx(0.0)]


def test_resample_rejects_bad_dt():
    with pytest.raises(ValueError):
        StepSeries().resample(0, 1, 0)


def test_utilization_timeseries_rejects_a_nan_dt():
    cluster = Cluster(ClusterSpec.small(num_machines=2, cores=4))
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        cluster.utilization_timeseries("cpu_used", 0.0, 10.0, dt=float("nan"))


def test_value_at_before_t0_returns_initial():
    """The initial value holds from t=0 up to the first change."""
    s = StepSeries(4.0)
    s.record(2.0, 9.0)
    assert s.values[0] == 4.0 and s.times[0] == 0.0
    assert s.mean(0.0, 2.0) == 4.0


def test_integral_clamps_window_to_t0():
    """The series is defined from t=0: an integral window reaching before
    t=0 contributes nothing for the negative part."""
    s = StepSeries(4.0)
    s.record(2.0, 0.0)
    assert s.integral(-5.0, 2.0) == pytest.approx(s.integral(0.0, 2.0))
    assert s.integral(-5.0, 0.0) == 0.0


def test_same_instant_overwrite_at_t0():
    """Overwriting the t=0 breakpoint replaces the initial value."""
    s = StepSeries(1.0)
    s.record(0.0, 6.0)
    assert len(s) == 1
    assert list(s.values) == [6.0]  # the initial breakpoint itself changed
    assert s.integral(0.0, 1.0) == 6.0


def test_same_instant_overwrite_back_to_previous_value():
    """A same-instant overwrite may restore the pre-step value; the
    breakpoint stays but the series reads flat.  The replaced value still
    counts as the peak (a push and a pop at one instant)."""
    s = StepSeries(0.0)
    s.record(1.0, 2.0)
    s.record(1.0, 0.0)
    assert list(s.values) == [0.0, 0.0]
    assert s.integral(0.0, 2.0) == 0.0
    assert s.busy(2.0) == 0.0
    assert s.peak == 2.0


def test_resample_truncates_last_partial_window():
    s = StepSeries(0.0)
    s.record(0.0, 10.0)
    grid, avgs = s.resample(0.0, 2.5, 1.0)
    assert grid == [0.0, 1.0, 2.0]
    # the last window is [2.0, 2.5) and still averages correctly
    assert avgs == [pytest.approx(10.0)] * 3


def test_resample_grid_excludes_t1_under_float_accumulation():
    """0.1+0.1+0.1 > 0.3 in floats; the epsilon guard must still stop the
    grid at exactly three windows instead of emitting a zero-width fourth."""
    s = StepSeries(1.0)
    grid, avgs = s.resample(0.0, 0.3, 0.1)
    assert len(grid) == 3
    assert grid[0] == 0.0
    assert avgs == [pytest.approx(1.0)] * 3


def test_resample_empty_and_inverted_range():
    s = StepSeries(1.0)
    assert s.resample(2.0, 2.0, 1.0) == ([], [])
    assert s.resample(5.0, 2.0, 1.0) == ([], [])


def test_traceset_series_identity_and_names():
    """Each machine owns one series per kind; the cluster's views read
    them by kind name."""
    cluster = Cluster(ClusterSpec.small(num_machines=2, cores=4))
    m0, m1 = cluster.machines
    assert m0.cpu_used is not m1.cpu_used
    m1.cpu_used.record(0.0, 2.0)
    m1.cpu_used.record(1.0, 0.0)
    assert cluster.integrate("cpu_used", 0.0, 1.0) == 2.0
    assert cluster.per_machine_utilization("cpu_used", 0.0, 1.0) == [0.0, 0.5]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=-50.0, max_value=50.0),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_property_integral_equals_riemann_sum(points):
    """The exact integral matches a fine Riemann sum of the values."""
    s = StepSeries(0.0)
    for t, v in sorted(points, key=lambda p: p[0]):
        s.record(t, v)
    t1 = 101.0
    dt = 0.25
    riemann = sum(_value_at(s, k * dt) * dt for k in range(int(t1 / dt)))
    # the series is right-continuous and breakpoints are floats that rarely hit
    # the grid, so allow a coarse tolerance proportional to dt.
    assert s.integral(0.0, t1) == pytest.approx(riemann, abs=dt * 50.0 * len(points) + 1e-6)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=20),
    st.floats(min_value=0.5, max_value=3.0),
)
def test_property_integral_is_additive_over_subintervals(values, split):
    s = StepSeries(0.0)
    for i, v in enumerate(values):
        s.record(float(i), v)
    t1 = float(len(values))
    mid = min(max(split, 0.0), t1)
    assert s.integral(0, t1) == pytest.approx(s.integral(0, mid) + s.integral(mid, t1))
