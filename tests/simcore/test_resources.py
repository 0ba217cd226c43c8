"""Tests for SharedProcessor (fluid processor sharing) and MemoryLedger."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import (
    InsufficientMemoryError,
    MemoryLedger,
    SharedProcessor,
    Simulation,
    StepSeries,
)


def make_cpu(sim, cores=4, rate=10.0):
    """A CPU pool: `cores` cores at `rate` MB/s each."""
    return SharedProcessor(sim, capacity=cores, unit_rate=rate)


def test_single_task_runs_at_full_core_rate():
    sim = Simulation()
    cpu = make_cpu(sim, cores=4, rate=10.0)
    done = []
    cpu.submit(100.0, lambda: done.append(sim.now))
    sim.drain()
    assert done == [pytest.approx(10.0)]


def test_tasks_within_capacity_do_not_interfere():
    sim = Simulation()
    cpu = make_cpu(sim, cores=4, rate=10.0)
    done = []
    for _ in range(4):
        cpu.submit(100.0, lambda: done.append(sim.now))
    sim.drain()
    assert all(t == pytest.approx(10.0) for t in done)


def test_oversubscribed_tasks_slow_down_fairly():
    sim = Simulation()
    cpu = make_cpu(sim, cores=2, rate=10.0)
    done = []
    for _ in range(4):  # demand 4 cores on a 2-core machine
        cpu.submit(100.0, lambda: done.append(sim.now))
    sim.drain()
    # each task gets 2/4 of a core: 5 MB/s, so 20 s
    assert all(t == pytest.approx(20.0) for t in done)


def test_late_arrival_shares_remaining_service():
    sim = Simulation()
    cpu = make_cpu(sim, cores=1, rate=10.0)
    done = {}
    cpu.submit(100.0, lambda: done.setdefault("a", sim.now))
    # at t=5, 50 MB of task a remains; b arrives and they share the core
    sim.run(until=5.0)
    cpu.submit(50.0, lambda: done.setdefault("b", sim.now))
    sim.drain()
    # from t=5 both run at 5 MB/s; both have 50 MB left -> finish at t=15
    assert done["a"] == pytest.approx(15.0)
    assert done["b"] == pytest.approx(15.0)


def test_zero_work_completes_immediately_but_asynchronously():
    sim = Simulation()
    cpu = make_cpu(sim)
    done = []
    # zero-size work never enters service: no entry to cancel, no share
    assert cpu.submit(0.0, lambda: done.append(sim.now)) is None
    assert cpu.active_count == 0
    assert cpu.cancel(None) == 0.0
    assert done == []  # not synchronous
    sim.drain()
    assert done == [0.0]


def test_cancel_returns_remaining_work():
    sim = Simulation()
    cpu = make_cpu(sim, cores=1, rate=10.0)
    done = []
    req = cpu.submit(100.0, lambda: done.append("a"))
    sim.run(until=4.0)
    remaining = cpu.cancel(req)
    assert remaining == pytest.approx(60.0)
    assert cpu.active_count == 0
    assert cpu.cancel(req) == 0.0  # already withdrawn
    sim.drain()
    assert done == []


def test_cancel_after_completion_returns_nothing():
    sim = Simulation()
    cpu = make_cpu(sim, cores=1, rate=10.0)
    done = []
    req = cpu.submit(100.0, lambda: done.append(sim.now))
    sim.drain()
    assert done == [pytest.approx(10.0)]
    assert cpu.cancel(req) == 0.0
    assert cpu.active_count == 0 and sim.events_pending == 0


def test_cancel_speeds_up_survivors():
    sim = Simulation()
    cpu = make_cpu(sim, cores=1, rate=10.0)
    done = {}
    req_a = cpu.submit(100.0, lambda: done.setdefault("a", sim.now))
    cpu.submit(100.0, lambda: done.setdefault("b", sim.now))
    sim.run(until=10.0)  # each has received 50 MB
    cpu.cancel(req_a)
    sim.drain()
    # b's remaining 50 MB now runs at full 10 MB/s -> finishes at t=15
    assert done == {"b": pytest.approx(15.0)}


def test_per_request_speed_and_units_in_use():
    sim = Simulation()
    cpu = make_cpu(sim, cores=4, rate=10.0)
    assert cpu.per_request_speed() == 0.0
    assert cpu.units_in_use == 0.0
    reqs = [cpu.submit(1000.0, lambda: None) for _ in range(2)]
    assert cpu.per_request_speed() == pytest.approx(10.0)
    assert cpu.units_in_use == 2.0
    for _ in range(6):
        cpu.submit(1000.0, lambda: None)
    assert cpu.units_in_use == 4.0
    assert cpu.per_request_speed() == pytest.approx(10.0 * 4 / 8)
    for r in reqs:
        cpu.cancel(r)
    assert cpu.active_count == 6


def test_used_trace_records_units():
    sim = Simulation()
    trace = StepSeries(0.0)
    cpu = SharedProcessor(sim, capacity=2, unit_rate=10.0, used_trace=trace)
    cpu.submit(100.0, lambda: None)  # 10 s
    cpu.submit(50.0, lambda: None)   # 5 s (shares? no: 2 cores, both full rate)
    sim.drain()
    # [0,5): 2 cores; [5,10): 1 core; after: 0
    assert trace.integral(0, 10.0) == pytest.approx(2 * 5 + 1 * 5)
    assert trace.values[-1] == 0.0


def test_invalid_construction_rejected():
    sim = Simulation()
    with pytest.raises(ValueError):
        SharedProcessor(sim, capacity=0, unit_rate=1.0)
    with pytest.raises(ValueError):
        SharedProcessor(sim, capacity=1, unit_rate=0.0)


def test_negative_or_nan_work_rejected():
    sim = Simulation()
    cpu = make_cpu(sim)
    with pytest.raises(ValueError):
        cpu.submit(-1.0, lambda: None)
    with pytest.raises(ValueError):
        cpu.submit(math.nan, lambda: None)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=50.0),   # arrival
            st.floats(min_value=0.1, max_value=200.0),  # work
            st.none() | st.floats(min_value=0.0, max_value=60.0),  # cancel after
        ),
        min_size=1,
        max_size=25,
    ),
    st.integers(min_value=1, max_value=8),
)
def test_property_work_conservation(jobs, cores):
    """Every request either completes or is withdrawn: a cancelled request
    never fires, its served work plus ``cancel``'s remainder is its size,
    ``active_count`` tracks the live requests after every event, and the
    busy-core integral equals completed plus served-then-cancelled work."""
    sim = Simulation()
    trace = StepSeries(0.0)
    rate = 10.0
    cpu = SharedProcessor(sim, capacity=cores, unit_rate=rate, used_trace=trace)
    entries = {}
    live = set()
    completed = []
    cancelled = {}  # request -> (cancel time, remaining MB)

    def arrive(i, work):
        entries[i] = cpu.submit(work, finish, i)
        live.add(i)

    def finish(i):
        assert i not in cancelled
        live.remove(i)
        completed.append(i)

    def withdraw(i):
        remaining = cpu.cancel(entries[i])
        if i in live:
            live.remove(i)
            cancelled[i] = (sim.now, remaining)
        else:
            assert remaining == 0.0  # finished first

    for i, (arrival, work, cancel_after) in enumerate(jobs):
        sim.at(arrival, arrive, i, work)
        if cancel_after is not None:
            sim.at(arrival + cancel_after, withdraw, i)
    # each live request's speed, from the test's own count of live requests
    speed = StepSeries(0.0)
    while sim.step():
        assert cpu.active_count == len(live)
        speed.record(sim.now, rate * min(1.0, cores / len(live)) if live else 0.0)

    assert not live and len(completed) + len(cancelled) == len(jobs)
    served_then_cancelled = 0.0
    for i, (cancelled_at, remaining) in cancelled.items():
        arrival, work, _after = jobs[i]
        served = speed.integral(arrival, cancelled_at)
        assert served + remaining == pytest.approx(work, rel=1e-6, abs=1e-6)
        served_then_cancelled += work - remaining
    completed_work = sum(jobs[i][1] for i in completed)
    busy_core_seconds = trace.integral(0, sim.now + 1.0)
    assert busy_core_seconds * rate == pytest.approx(
        completed_work + served_then_cancelled, rel=1e-6, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=8))
def test_property_equal_batch_finishes_together(n, cores):
    """n identical tasks submitted together finish at the same analytic time."""
    sim = Simulation()
    cpu = SharedProcessor(sim, capacity=cores, unit_rate=10.0)
    finish = []
    for _ in range(n):
        cpu.submit(100.0, lambda: finish.append(sim.now))
    sim.drain()
    expected = 100.0 / (10.0 * min(1.0, cores / n))
    assert all(t == pytest.approx(expected) for t in finish)


@pytest.mark.parametrize("arg", ["capacity", "unit_rate"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_construction_rejected_naming_the_argument(arg, bad):
    kwargs = {"capacity": 1.0, "unit_rate": 1.0, arg: bad}
    with pytest.raises(ValueError, match=arg):
        SharedProcessor(Simulation(), **kwargs)


# ----------------------------------------------------------------------
# MemoryLedger
# ----------------------------------------------------------------------
def test_memory_allocate_and_release():
    sim = Simulation()
    mem = MemoryLedger(sim, 1000.0)
    mem.allocate(400.0)
    assert mem.used == 400.0
    assert mem.available == 600.0
    mem.release(150.0)
    assert mem.used == pytest.approx(250.0)


def test_memory_overallocation_raises():
    sim = Simulation()
    mem = MemoryLedger(sim, 100.0)
    mem.allocate(90.0)
    with pytest.raises(InsufficientMemoryError):
        mem.allocate(20.0)
    assert mem.used == 90.0  # failed allocation changed nothing


def test_memory_try_allocate():
    sim = Simulation()
    mem = MemoryLedger(sim, 100.0)
    assert mem.try_allocate(60.0)
    assert not mem.try_allocate(60.0)
    assert mem.used == 60.0


def test_memory_release_more_than_used_raises():
    sim = Simulation()
    mem = MemoryLedger(sim, 100.0)
    mem.allocate(10.0)
    with pytest.raises(ValueError):
        mem.release(20.0)


def test_memory_negative_amounts_rejected():
    sim = Simulation()
    mem = MemoryLedger(sim, 100.0)
    with pytest.raises(ValueError):
        mem.allocate(-5.0)
    with pytest.raises(ValueError):
        mem.release(-5.0)


def test_memory_trace_records_usage():
    sim = Simulation()
    trace = StepSeries(0.0)
    mem = MemoryLedger(sim, 100.0, used_trace=trace)
    sim.schedule(1.0, mem.allocate, 50.0)
    sim.schedule(3.0, mem.release, 50.0)
    sim.drain()
    assert trace.integral(0, 4.0) == pytest.approx(100.0)  # 50 MB for 2 s


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=30.0), min_size=1, max_size=30))
def test_property_memory_never_negative_or_overcommitted(amounts):
    sim = Simulation()
    mem = MemoryLedger(sim, 100.0)
    held = []
    for amt in amounts:
        if mem.try_allocate(amt):
            held.append(amt)
        assert 0.0 <= mem.used <= mem.capacity + 1e-9
    for amt in held:
        mem.release(amt)
    assert mem.used == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_memory_non_finite_capacity_rejected(bad):
    with pytest.raises(ValueError, match="capacity_mb"):
        MemoryLedger(Simulation(), bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_memory_non_finite_amounts_rejected_and_ledger_unchanged(bad):
    mem = MemoryLedger(Simulation(), 100.0)
    mem.allocate(60.0)
    with pytest.raises(ValueError, match="memory to release"):
        mem.release(bad)
    with pytest.raises(ValueError, match="memory to allocate"):
        mem.allocate(bad)
    with pytest.raises(ValueError, match="memory to allocate"):
        mem.try_allocate(bad)
    assert mem.used == 60.0
