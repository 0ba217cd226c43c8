"""Tests for the network fabrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import MaxMinFabric, PullSet, ReceiverSideFabric, Simulation, StepSeries


def test_single_transfer_uses_full_downlink():
    sim = Simulation()
    net = ReceiverSideFabric(sim, num_machines=2, downlink_mbps=100.0)
    done = []
    net.start_transfer(1, [(0, 500.0)], lambda: done.append(sim.now))
    sim.drain()
    assert done == [pytest.approx(5.0)]


def test_receiver_sharing_halves_rate():
    sim = Simulation()
    net = ReceiverSideFabric(sim, num_machines=3, downlink_mbps=100.0)
    done = []
    net.start_transfer(2, [(0, 500.0)], lambda: done.append(("a", sim.now)))
    net.start_transfer(2, [(1, 500.0)], lambda: done.append(("b", sim.now)))
    sim.drain()
    assert dict(done) == {"a": pytest.approx(10.0), "b": pytest.approx(10.0)}


def test_transfers_to_different_receivers_are_independent():
    sim = Simulation()
    net = ReceiverSideFabric(sim, num_machines=3, downlink_mbps=100.0)
    done = []
    net.start_transfer(1, [(0, 500.0)], lambda: done.append(sim.now))
    net.start_transfer(2, [(0, 500.0)], lambda: done.append(sim.now))
    sim.drain()
    assert [pytest.approx(5.0)] * 2 == done


def test_multi_source_pull_counts_total_bytes():
    sim = Simulation()
    net = ReceiverSideFabric(sim, num_machines=4, downlink_mbps=100.0)
    done = []
    net.start_transfer(3, [(0, 100.0), (1, 200.0), (2, 200.0)], lambda: done.append(sim.now))
    sim.drain()
    assert done == [pytest.approx(5.0)]


def test_local_bytes_skip_the_network():
    sim = Simulation()
    net = ReceiverSideFabric(sim, num_machines=2, downlink_mbps=100.0)
    done = []
    net.start_transfer(1, [(1, 1000.0), (0, 100.0)], lambda: done.append(sim.now))
    sim.drain()
    # only the 100 MB remote part costs time
    assert done == [pytest.approx(1.0)]


def test_fully_local_transfer_completes_immediately():
    sim = Simulation()
    net = ReceiverSideFabric(sim, num_machines=2, downlink_mbps=100.0)
    done = []
    # an all-local pull has nothing to cancel: no handle, no downlink share
    assert net.start_transfer(0, [(0, 1000.0)], lambda: done.append(sim.now)) is None
    assert net.active_transfers(0) == 0
    assert done == []  # not synchronous
    sim.drain()
    assert done == [0.0]


def test_cancel_stops_callback_and_frees_bandwidth():
    sim = Simulation()
    net = ReceiverSideFabric(sim, num_machines=3, downlink_mbps=100.0)
    done = []
    tr_a = net.start_transfer(2, [(0, 500.0)], lambda: done.append("a"))
    net.start_transfer(2, [(1, 250.0)], lambda: done.append((sim.now, "b")))
    sim.run(until=1.0)
    net.cancel(2, tr_a)
    assert net.active_transfers(2) == 1
    net.cancel(2, tr_a)  # a second cancel is a no-op
    assert net.active_transfers(2) == 1
    sim.drain()
    # b received 50 MB in [0,1) at half rate, then 200 MB at full rate -> t=3
    assert done == [(pytest.approx(3.0), "b")]


def test_active_transfers_count():
    sim = Simulation()
    net = ReceiverSideFabric(sim, num_machines=2, downlink_mbps=100.0)
    assert net.active_transfers(1) == 0
    net.start_transfer(1, [(0, 500.0)], lambda: None)
    net.start_transfer(1, [(0, 500.0)], lambda: None)
    assert net.active_transfers(1) == 2
    sim.drain()
    assert net.active_transfers(1) == 0


def test_receive_rate_reflects_sharing():
    sim = Simulation()
    net = ReceiverSideFabric(sim, num_machines=2, downlink_mbps=100.0)
    net.start_transfer(1, [(0, 500.0)], lambda: None)
    net.start_transfer(1, [(0, 500.0)], lambda: None)
    assert net.receive_rate(1) == pytest.approx(100.0)
    sim.drain()
    assert net.receive_rate(1) == 0.0


def test_invalid_construction():
    sim = Simulation()
    with pytest.raises(ValueError):
        ReceiverSideFabric(sim, num_machines=0, downlink_mbps=10.0)
    with pytest.raises(ValueError):
        ReceiverSideFabric(sim, num_machines=2, downlink_mbps=0.0)


@pytest.mark.parametrize("fabric", [ReceiverSideFabric, MaxMinFabric])
@pytest.mark.parametrize("arg, value", [
    ("num_machines", 0), ("num_machines", -1), ("num_machines", 2.5),
    ("num_machines", float("nan")), ("num_machines", True),
    ("downlink_mbps", float("nan")), ("downlink_mbps", float("inf")),
    ("downlink_mbps", float("-inf")), ("downlink_mbps", -1.0), ("downlink_mbps", 0.0),
])
def test_fabric_refuses_a_bad_size_by_name(fabric, arg, value):
    kwargs = {"num_machines": 2, "downlink_mbps": 100.0, arg: value}
    with pytest.raises(ValueError, match=f"^{arg} must be"):
        fabric(Simulation(), **kwargs)


def test_used_trace_integral_equals_bytes_moved():
    sim = Simulation()
    traces = [StepSeries(0.0) for _ in range(2)]
    net = ReceiverSideFabric(sim, num_machines=2, downlink_mbps=100.0, used_traces=traces)
    net.start_transfer(1, [(0, 300.0)], lambda: None)
    sim.drain()
    # trace records downlink units (0..1); 3 s at full utilization
    assert traces[1].integral(0, 10.0) * 100.0 == pytest.approx(300.0)


# ----------------------------------------------------------------------
# MaxMinFabric
# ----------------------------------------------------------------------
def test_maxmin_single_flow_full_rate():
    sim = Simulation()
    net = MaxMinFabric(sim, num_machines=2, downlink_mbps=100.0)
    done = []
    net.start_transfer(1, [(0, 500.0)], lambda: done.append(sim.now))
    sim.drain()
    assert done == [pytest.approx(5.0)]


def test_maxmin_uplink_bottleneck():
    """Two receivers pulling from the same sender are limited by its uplink."""
    sim = Simulation()
    net = MaxMinFabric(sim, num_machines=3, downlink_mbps=100.0)
    done = []
    net.start_transfer(1, [(0, 500.0)], lambda: done.append(sim.now))
    net.start_transfer(2, [(0, 500.0)], lambda: done.append(sim.now))
    sim.drain()
    # uplink of machine 0 is shared: 50 MB/s each -> 10 s
    assert done == [pytest.approx(10.0)] * 2
    # receiver-side model would (wrongly for this topology) say 5 s:
    sim2 = Simulation()
    rx = ReceiverSideFabric(sim2, num_machines=3, downlink_mbps=100.0)
    done2 = []
    rx.start_transfer(1, [(0, 500.0)], lambda: done2.append(sim2.now))
    rx.start_transfer(2, [(0, 500.0)], lambda: done2.append(sim2.now))
    sim2.drain()
    assert done2 == [pytest.approx(5.0)] * 2


def test_maxmin_water_filling_gives_leftover_to_unconstrained():
    """Flows: A->C and B->C plus A->D.  C's downlink splits between the two
    inbound flows; A's uplink splits between its two outbound flows; the
    A->D flow then picks up A's leftover? (With equal caps it stays fair.)"""
    sim = Simulation()
    net = MaxMinFabric(sim, num_machines=4, downlink_mbps=90.0)
    rates = {}

    net.start_transfer(2, [(0, 900.0)], lambda: rates.setdefault("ac", sim.now))
    net.start_transfer(2, [(1, 900.0)], lambda: rates.setdefault("bc", sim.now))
    net.start_transfer(3, [(0, 900.0)], lambda: rates.setdefault("ad", sim.now))
    # C downlink = 90 shared by 2 -> 45 each; A uplink = 90 shared by 2 -> 45
    # each; all three flows run at 45 MB/s -> 20 s.
    sim.drain()
    assert rates["ac"] == pytest.approx(20.0)
    assert rates["bc"] == pytest.approx(20.0)
    assert rates["ad"] == pytest.approx(20.0)


def test_maxmin_local_transfer_is_free():
    sim = Simulation()
    net = MaxMinFabric(sim, num_machines=2, downlink_mbps=100.0)
    done = []
    assert net.start_transfer(0, [(0, 500.0)], lambda: done.append(sim.now)) is None
    assert net.active_transfers(0) == 0
    assert done == []  # not synchronous
    sim.drain()
    assert done == [0.0]


def test_maxmin_cancel():
    sim = Simulation()
    net = MaxMinFabric(sim, num_machines=3, downlink_mbps=100.0)
    done = []
    tr = net.start_transfer(2, [(0, 500.0)], lambda: done.append("a"))
    net.start_transfer(2, [(1, 250.0)], lambda: done.append((sim.now, "b")))
    sim.run(until=1.0)
    net.cancel(2, tr)
    assert net.active_transfers(2) == 1
    completion = net._completion_ev
    net.cancel(2, tr)  # a second cancel is a no-op: it reschedules nothing
    assert net.active_transfers(2) == 1 and net._completion_ev is completion
    sim.drain()
    assert done == [(pytest.approx(3.0), "b")]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # src
            st.integers(min_value=0, max_value=3),  # dst
            st.floats(min_value=1.0, max_value=300.0),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_property_maxmin_conserves_bytes(flows):
    """All transfers complete, and the finish time is consistent with total
    bytes vs aggregate capacity bounds."""
    sim = Simulation()
    net = MaxMinFabric(sim, num_machines=4, downlink_mbps=50.0)
    done = []
    remote = [(s, d, b) for s, d, b in flows if s != d]
    for s, d, b in flows:
        net.start_transfer(d, [(s, b)], lambda: done.append(sim.now))
    sim.drain()
    assert len(done) == len(flows)
    if remote:
        total = sum(b for _s, _d, b in remote)
        # finish no earlier than the per-port lower bound
        per_dst: dict[int, float] = {}
        per_src: dict[int, float] = {}
        for s, d, b in remote:
            per_dst[d] = per_dst.get(d, 0.0) + b
            per_src[s] = per_src.get(s, 0.0) + b
        lower = max(
            max(v for v in per_dst.values()) / 50.0,
            max(v for v in per_src.values()) / 50.0,
        )
        assert max(done) >= lower - 1e-6
        # and no later than fully-serialized service on one port
        assert max(done) <= total / 50.0 + 1e-6


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10))
def test_property_receiver_share_n_equal_pulls(n):
    """n equal pulls into one receiver all finish at n * single-pull time."""
    sim = Simulation()
    net = ReceiverSideFabric(sim, num_machines=3, downlink_mbps=100.0)
    done = []
    for _ in range(n):
        net.start_transfer(2, [(0, 100.0)], lambda: done.append(sim.now))
    sim.drain()
    assert all(t == pytest.approx(n * 1.0) for t in done)


# ----------------------------------------------------------------------
# PullSet: a shared pull behaves exactly like the plain list it wraps
# ----------------------------------------------------------------------
_PULLS = [
    [(0, 120.0), (1, 80.5), (2, 33.3), (3, 200.0)],
    [(1, 64.0), (1, 16.0), (3, 7.25)],
    [(2, 10.0)],
]


def _drive(fabric_cls, wrap):
    """Start every pull at three receivers (staggered), shared when
    wrapped; return completion times and each downlink's used integral."""
    sim = Simulation()
    traces = [StepSeries(0.0) for _ in range(4)]
    net = fabric_cls(sim, num_machines=4, downlink_mbps=100.0, used_traces=traces)
    pulls = [PullSet.of(p) if wrap else p for p in _PULLS]
    done: dict = {}
    for step, dst in enumerate((0, 1, 2)):
        sim.run(until=0.5 * step)
        for k, pull in enumerate(pulls):
            net.start_transfer(dst, pull, lambda key=(dst, k): done.__setitem__(key, sim.now))
    sim.drain()
    return done, [t.integral(0.0, sim.now + 1.0) for t in traces]


@pytest.mark.parametrize("fabric_cls", [ReceiverSideFabric, MaxMinFabric])
def test_pullset_and_plain_list_give_identical_runs(fabric_cls):
    plain = _drive(fabric_cls, wrap=False)
    shared = _drive(fabric_cls, wrap=True)
    assert shared == plain
    assert len(plain[0]) == 9


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.floats(0.0, 1e4, allow_nan=False)), max_size=40
    ),
    st.permutations(range(8)),
)
def test_local_mb_is_the_ordered_sum_of_local_pairs(pairs, order):
    """The first receiver (one scan) and every later one (the memo built
    for all machines at the second) get their pairs summed in pair order;
    machines 6 and 7 hold no pair and get 0.0."""
    pull = PullSet.of(pairs)
    for dst in order + order[:1]:  # the first receiver asks again at the end
        local = pull.local_mb(dst)
        assert local == float(sum(size for src, size in pairs if src == dst))
        assert isinstance(local, float)
    assert pull.total_mb == float(sum(size for _src, size in pairs))
    assert isinstance(pull.total_mb, float)
    assert pull == pairs and list(pull) == pairs and len(pull) == len(pairs)
