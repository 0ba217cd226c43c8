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
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.series import StepSeries

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
