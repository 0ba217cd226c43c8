"""Unit and property tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import Simulation, SimulationError


def test_clock_starts_at_zero():
    sim = Simulation()
    assert sim.now == 0.0


def test_events_fire_in_time_order():
    sim = Simulation()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.drain()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_instant_events_fire_in_schedule_order():
    sim = Simulation()
    fired = []
    for tag in range(10):
        sim.schedule(5.0, fired.append, tag)
    sim.drain()
    assert fired == list(range(10))


def test_callbacks_can_schedule_more_events():
    sim = Simulation()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 4:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.drain()
    assert fired == [0, 1, 2, 3, 4]
    assert sim.now == 4.0


def test_call_soon_runs_after_queued_same_instant_events():
    sim = Simulation()
    fired = []
    sim.schedule(1.0, fired.append, "first")

    def at_one():
        sim.call_soon(fired.append, "soon")

    sim.at(1.0, at_one)
    sim.schedule(1.0, fired.append, "second")
    sim.drain()
    assert fired == ["first", "second", "soon"]


def test_cancel_prevents_firing():
    sim = Simulation()
    fired = []
    ev = sim.schedule(1.0, fired.append, "x")
    assert sim.events_pending == 1
    assert sim.cancel(ev)
    assert sim.events_pending == 0
    sim.drain()
    assert fired == [] and sim.events_fired == 0


def test_cancel_twice_returns_false():
    sim = Simulation()
    ev = sim.schedule(1.0, lambda: None)
    assert sim.cancel(ev)
    assert not sim.cancel(ev)


def test_cancel_after_fire_returns_false():
    sim = Simulation()
    ev = sim.schedule(1.0, lambda: None)
    sim.drain()
    assert sim.events_fired == 1
    assert not sim.cancel(ev)
    assert sim.events_pending == 0


def test_negative_delay_rejected():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_past_absolute_time_rejected():
    sim = Simulation()
    sim.schedule(5.0, lambda: None)
    sim.drain()
    with pytest.raises(SimulationError):
        sim.at(4.0, lambda: None)


def test_nonfinite_delay_rejected():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.schedule(float("inf"), lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)


def test_run_until_stops_before_later_events():
    sim = Simulation()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert fired == ["early"]
    assert sim.now == 5.0
    sim.drain()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_when_queue_empty():
    sim = Simulation()
    sim.run(until=7.5)
    assert sim.now == 7.5


@pytest.mark.parametrize("until", [float("nan"), float("inf"), float("-inf")])
def test_run_rejects_a_non_finite_bound_and_fires_nothing(until):
    sim = Simulation()
    fired = []
    sim.schedule(100.0, fired.append, "late")
    with pytest.raises(SimulationError, match="until"):
        sim.run(until=until)
    assert fired == [] and sim.now == 0.0
    sim.schedule(1.0, fired.append, "next")  # the clock stayed finite
    sim.drain()
    assert fired == ["next", "late"]


@pytest.mark.parametrize("max_events", [float("nan"), 100.0, 0, -5, True])
def test_run_rejects_a_max_events_that_is_not_a_positive_int(max_events):
    sim = Simulation()
    sim.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=max_events)
    assert sim.events_pending == 1


def test_max_events_guard():
    sim = Simulation()

    def forever():
        sim.schedule(0.0, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_step_returns_false_when_empty():
    sim = Simulation()
    assert not sim.step()
    sim.schedule(1.0, lambda: None)
    assert sim.step()
    assert not sim.step()


def test_events_fired_counter():
    sim = Simulation()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.drain()
    assert sim.events_fired == 5


def test_events_pending_excludes_cancelled():
    sim = Simulation()
    evs = [sim.schedule(1.0, lambda: None) for _ in range(4)]
    sim.cancel(evs[0])
    sim.cancel(evs[2])
    assert sim.events_pending == 2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
def test_property_fire_order_is_sorted_by_time(delays):
    """Whatever order events are scheduled, they fire sorted by time with
    insertion order breaking ties."""
    sim = Simulation()
    fired = []
    for idx, d in enumerate(delays):
        sim.schedule(d, fired.append, (d, idx))
    sim.drain()
    assert fired == sorted(fired, key=lambda p: (p[0], p[1]))
    assert len(fired) == len(delays)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=40),
    st.data(),
)
def test_property_cancelled_subset_never_fires(delays, data):
    sim = Simulation()
    fired = []
    handles = [sim.schedule(d, fired.append, i) for i, d in enumerate(delays)]
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(delays) - 1), max_size=len(delays))
    )
    for i in to_cancel:
        sim.cancel(handles[i])
    sim.drain()
    assert set(fired) == set(range(len(delays))) - to_cancel


# ----------------------------------------------------------------------
# live pending counter + heap compaction
# ----------------------------------------------------------------------
def test_pending_counter_tracks_push_pop_cancel():
    sim = Simulation()
    assert sim.events_pending == 0
    handles = [sim.schedule(float(i), lambda: None) for i in range(10)]
    assert sim.events_pending == 10
    sim.cancel(handles[3])
    sim.cancel(handles[7])
    assert sim.events_pending == 8
    # double-cancel must not decrement twice
    sim.cancel(handles[3])
    assert sim.events_pending == 8
    sim.step()
    assert sim.events_pending == 7
    sim.drain()
    assert sim.events_pending == 0


def test_pending_counter_matches_heap_scan():
    """The O(1) counter agrees with a brute-force scan at every step."""
    sim = Simulation()
    handles = [sim.schedule(float(i % 7), lambda: None) for i in range(50)]
    for i in range(0, 50, 3):
        sim.cancel(handles[i])
    scan = sum(1 for _time, _seq, callback, _args in sim._heap if callback is not None)
    assert sim.events_pending == scan
    while sim.step():
        scan = sum(1 for _time, _seq, callback, _args in sim._heap if callback is not None)
        assert sim.events_pending == scan


def test_heap_compaction_evicts_cancelled_majority():
    sim = Simulation()
    n = 4 * Simulation.COMPACT_MIN_SIZE
    fired = []
    handles = [sim.schedule(float(i), fired.append, float(i)) for i in range(n)]
    heap = sim._heap
    assert len(heap) == n
    # cancel just over half: the compactor must kick in and drop them
    for h in handles[: n // 2 + 1]:
        sim.cancel(h)
    assert sim._heap is heap  # compacted in place
    assert len(heap) == n - (n // 2 + 1)
    assert sim.events_pending == len(heap)
    # the survivors still fire, in order
    sim.drain()
    assert fired == sorted(fired)
    assert len(fired) == n - (n // 2 + 1)
    assert fired == [float(i) for i in range(n // 2 + 1, n)]


def test_small_heaps_are_not_compacted():
    sim = Simulation()
    handles = [sim.schedule(float(i), lambda: None) for i in range(10)]
    for h in handles[:9]:
        sim.cancel(h)
    # under COMPACT_MIN_SIZE the cancelled entries stay (lazy deletion)
    assert len(sim._heap) == 10
    assert sim.events_pending == 1


# ----------------------------------------------------------------------
# the two traps of lazy deletion
# ----------------------------------------------------------------------
def test_run_until_skips_a_cancelled_head_without_passing_the_bound():
    """A cancelled entry at t <= until heads the heap and the next live one
    lies past it: nothing fires past ``until`` and the clock stops there."""
    sim = Simulation()
    fired = []
    sim.cancel(sim.schedule(2.0, fired.append, "cancelled"))
    sim.schedule(9.0, fired.append, "late")
    assert sim.run(until=5.0) == 5.0
    assert fired == [] and sim.now == 5.0
    assert sim.events_pending == 1 and len(sim._heap) == 1
    sim.drain()
    assert fired == ["late"] and sim.now == 9.0


def test_compaction_inside_run_loses_no_live_event():
    """A callback cancels enough entries to compact the heap mid-run: every
    live event still fires once, in (time, seq) order."""
    sim = Simulation()
    n = 4 * Simulation.COMPACT_MIN_SIZE
    fired = []
    doomed = [sim.schedule(10.0 + i, fired.append, ("doomed", i)) for i in range(n)]
    live = [(5.0 + (i % 7), i) for i in range(n // 4)]
    for t, i in live:
        sim.at(t, fired.append, (t, i))
    heap = sim._heap

    def cancel_all():
        for ev in doomed:
            sim.cancel(ev)
        assert len(heap) < n  # the heap compacted while run() held it

    sim.at(1.0, cancel_all)
    sim.run()
    assert fired == sorted(live)
    assert sim.events_pending == 0 and sim.events_fired == len(live) + 1
