"""``StepSeries`` against the streaming accumulators it replaced.

Telemetry once folded each gauge through ``StepAccumulator`` and
``TimeBins`` (frozen in :mod:`tests.step_reference`), which kept running
sums and never stored a change point.  ``StepSeries`` stores the change
points and derives the same figures on demand; hypothesis-drawn change
sequences must give ``==`` integrals, busy times, bins and peaks (the
peak's type included: ``telemetry.json`` prints an int peak as ``1``).

The drawn sequences follow the two rules the two differ on: a record at a
later time always changes the value (the accumulator would split its
segment there, ``StepSeries`` adds no point), and a sequence's values are
all of the initial value's type (an int series refuses a float, a float
series stores an int as a float).  Same-instant records may repeat the
value or return to the previous one.

``integral`` over any window must also give the bytes (``repr``) of the
segment-by-segment loop it replaced (:func:`tests.step_reference.integral`).
"""

import math
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.series import StepSeries

from . import step_reference
from .step_reference import StepAccumulator

WIDTHS = (0.3, 0.5, 1.0, 2.5)
#: a series' values: all ints or all floats, like its initial value
_VALUES = st.sampled_from((st.integers(-2, 6), st.floats(-2.0, 6.0, allow_nan=False)))
#: how the next record's time follows the last one: same instant, a float
#: gap, or the k-th next bin boundary
_STEP = st.one_of(
    st.just(("same", 0)),
    st.tuples(st.just("gap"), st.floats(1e-3, 4.0)),
    st.tuples(st.just("boundary"), st.integers(1, 3)),
)
#: what a same-instant record writes: a new value, the current one again,
#: or the value before the instant's first change
_SAME = st.sampled_from(("new", "repeat", "back"))


def _advance(t, step, width):
    how, arg = step
    if how == "same":
        return t
    if how == "gap":
        return t + arg
    return max(t, (int(t / width) + arg) * width)


@st.composite
def _changes(draw):
    width = draw(st.sampled_from(WIDTHS))
    value_st = draw(_VALUES)
    initial = draw(value_st)
    t, current, before = 0.0, initial, initial
    records = []
    for step, value, same in draw(st.lists(st.tuples(_STEP, value_st, _SAME), max_size=30)):
        nxt = _advance(t, step, width)
        if nxt == t:
            value = {"new": value, "repeat": current, "back": before}[same]
        else:
            before = current
            if value == current:
                value = current + 1
        t, current = nxt, value
        records.append((t, value))
    end = _advance(t, draw(_STEP), width)
    return width, initial, records, end


@settings(max_examples=300, deadline=None)
@given(_changes())
def test_series_gives_the_accumulator_figures(case):
    width, initial, records, end = case
    series = StepSeries(initial)
    acc = StepAccumulator(width, value=initial)
    for t, value in records:
        series.record(t, value)
        acc.set(t, value)
    assert series.bins(width, end) == acc.series(end)
    assert series.integral(0.0, end) == acc.integral
    assert series.busy(end) == acc.busy_seconds
    assert series.peak == acc.peak
    assert type(series.peak) is type(acc.peak)


def test_a_same_value_record_at_a_later_time_adds_no_point():
    s = StepSeries()
    s.record(1.0, 2)
    s.record(3.0, 2)
    s.record(3.0, 2.0)
    assert list(s.times) == [0.0, 1.0] and list(s.values) == [0.0, 2.0]


def test_values_take_the_initial_values_type():
    """``StepSeries(0)`` stores ints and ``StepSeries()`` floats, whatever
    type a later record passes."""
    s = StepSeries(0)
    s.record(1.0, 1)
    s.record(2.0, 0)
    assert s.peak == 1 and type(s.peak) is int
    assert s.bins(1.0, 3.0) == [0.0, 1.0, 0.0]
    f = StepSeries()
    f.record(1.0, 2)
    assert type(f.values[-1]) is float and type(f.peak) is float


def test_an_int_series_keeps_ints():
    s = StepSeries(3)
    s.record(1.0, 5)
    s.record(1.0, 7)  # a same-instant replace
    s.record(2.0, 2)
    assert s.peak == 7 and type(s.peak) is int
    assert min(s.values) == 2 and type(min(s.values)) is int
    assert s.values.typecode == "q" and s.times.typecode == "d"
    for time in (3.0, 2.0):  # an appending and a replacing record
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            s.record(time, 2.5)
    assert list(s.times) == [0.0, 1.0, 2.0] and list(s.values) == [3, 7, 2]


def test_a_point_costs_at_most_20_bytes():
    """Two 8-byte columns: 16 bytes a change point, plus the columns'
    over-allocation.  The points are computed while traced, as a simulation
    computes its times; two lists of boxed floats held 64 bytes a point here
    (about 46 on a service run, whose series share some value objects)."""
    n = 100_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        s = StepSeries()
        for i in range(1, n + 1):
            s.record(i * 0.5, i % 7 + 1.5)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(s) == n + 1
    assert held / n <= 20


def test_a_series_survives_a_pickle_round_trip():
    for s in (StepSeries(), StepSeries(2)):
        s.record(1.0, 5)
        s.record(1.0, 9)
        s.record(2.5, 1)
        back = pickle.loads(pickle.dumps(s))
        assert back.times == s.times and back.values == s.values
        assert back.values.typecode == s.values.typecode
        assert back.peak == s.peak == 9 and type(back.peak) is type(s.peak)
        assert back.integral(0.0, 4.0) == s.integral(0.0, 4.0)


def test_a_nan_record_is_refused_naming_the_nan():
    s = StepSeries()
    s.record(1.0, 2.0)
    with pytest.raises(ValueError, match=r"trace time nan is not at or after the last change at 1.0"):
        s.record(math.nan, 3.0)
    with pytest.raises(ValueError, match="series value is NaN at time 2.0"):
        s.record(2.0, math.nan)
    with pytest.raises(ValueError, match="series value is NaN at time 1.0"):
        s.record(1.0, math.nan)  # a same-instant replace
    assert list(s.values) == [0.0, 2.0] and s.integral(0.0, 3.0) == 4.0


@pytest.mark.parametrize("width", [math.nan, math.inf])
def test_bins_and_resample_reject_a_width_that_is_not_finite(width):
    with pytest.raises(ValueError, match=r"bin width must be positive and finite \(got (nan|inf)\)"):
        StepSeries().bins(width, 10.0)
    with pytest.raises(ValueError, match=r"dt must be positive and finite \(got (nan|inf)\)"):
        StepSeries().resample(0.0, 10.0, width)


@pytest.mark.parametrize("width", [0.0, -1.0])
def test_bins_reject_a_non_positive_width(width):
    with pytest.raises(ValueError, match="bin width must be positive"):
        StepSeries().bins(width, 1.0)


#: a window end: a change point (or the series' end), a point between two
#: change points, or a float anywhere from before 0 to past the end
_EDGE = st.one_of(
    st.tuples(st.just("point"), st.integers(0, 40)),
    st.tuples(st.just("between"), st.integers(0, 40)),
    st.tuples(st.just("any"), st.floats(-3.0, 1.5)),
)


def _window_end(edge, times):
    how, arg = edge
    last = times[-1]
    if how == "point":
        return times[arg % len(times)]
    if how == "between":
        i = arg % len(times)
        return (times[i] + (times[i + 1] if i + 1 < len(times) else last + 1.0)) / 2
    return arg * (last + 1.0)


@settings(max_examples=300, deadline=None)
@given(_changes(), _EDGE, _EDGE, st.booleans())
def test_integral_gives_the_reference_bytes_over_any_window(case, a, b, open_end):
    """Windows starting before 0, ending past the last change, empty or
    reversed (``t1 <= t0``), and on change points."""
    _width, initial, records, _end = case
    series = StepSeries(initial)
    for t, value in records:
        series.record(t, value)
    t0 = _window_end(a, series.times)
    t1 = None if open_end else _window_end(b, series.times)
    want = step_reference.integral(series.times, series.values, t0, t1)
    assert repr(series.integral(t0, t1)) == repr(want)
    assert repr(series.integral()) == repr(step_reference.integral(series.times, series.values))


def test_busy_and_bins_stop_at_end():
    """Changes after ``end`` must not count: the window is [0, end)."""
    s = StepSeries()
    s.record(0.0, 1)
    s.record(5.0, 2)
    s.record(10.0, 3)
    assert s.busy(7.0) == 7.0
    assert s.bins(1.0, 7.0) == [1.0] * 5 + [2.0] * 2
    assert s.busy(3.0) == 3.0 and s.bins(2.0, 3.0) == [1.0, 1.0]
    assert s.busy(12.0) == 12.0 and len(s.bins(1.0, 12.0)) == 12
