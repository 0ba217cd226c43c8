"""``StepSeries`` against the streaming accumulators it replaced.

Telemetry once folded each gauge through ``StepAccumulator`` and
``TimeBins`` (frozen in :mod:`tests.step_reference`), which kept running
sums and never stored a change point.  ``StepSeries`` stores the change
points and derives the same figures on demand; hypothesis-drawn change
sequences must give ``==`` integrals, busy times, bins and peaks (the
peak's type included: ``telemetry.json`` prints an int peak as ``1``).

The drawn sequences follow the one rule the two differ on: a record at a
later time always changes the value (the accumulator would split its
segment there, ``StepSeries`` adds no point).  Same-instant records may
repeat the value or return to the previous one.

``integral`` over any window must also give the bytes (``repr``) of the
segment-by-segment loop it replaced (:func:`tests.step_reference.integral`).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.series import StepSeries

from . import step_reference
from .step_reference import StepAccumulator

WIDTHS = (0.3, 0.5, 1.0, 2.5)
_VALUE = st.one_of(st.integers(-2, 6), st.floats(-2.0, 6.0, allow_nan=False))
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
    initial = draw(_VALUE)
    t, current, before = 0.0, initial, initial
    records = []
    for step, value, same in draw(st.lists(st.tuples(_STEP, _VALUE, _SAME), max_size=30)):
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
    assert s.times == [0.0, 1.0] and s.values == [0.0, 2]


def test_values_are_stored_as_given():
    s = StepSeries()
    s.record(1.0, 1)
    s.record(2.0, 0)
    assert s.peak == 1 and type(s.peak) is int
    assert s.bins(1.0, 3.0) == [0.0, 1.0, 0.0]


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
