"""Tests for machine/cluster wiring and accounting ledgers."""

import pytest

from repro.cluster import Cluster, ClusterSpec, MachineSpec
from repro.simcore import MaxMinFabric, ReceiverSideFabric


def test_machine_spec_defaults_match_paper_testbed():
    spec = MachineSpec()
    assert spec.cores == 32
    assert spec.memory_mb == 128 * 1024
    assert spec.net_gbps == 10.0
    assert spec.net_mbps == pytest.approx(1250.0)


def test_machine_spec_validation():
    with pytest.raises(ValueError):
        MachineSpec(cores=0)
    with pytest.raises(ValueError):
        MachineSpec(core_rate_mbps=-1)
    with pytest.raises(ValueError):
        MachineSpec(memory_mb=0)
    with pytest.raises(ValueError):
        MachineSpec(net_gbps=0)
    with pytest.raises(ValueError):
        MachineSpec(disks=0)


@pytest.mark.parametrize("field, value", [
    *((f, v) for f in ("core_rate_mbps", "memory_mb", "net_gbps", "disk_mbps")
      for v in (float("nan"), float("inf"))),
    ("disk_mbps", 0),
    ("disks", 0),
])
def test_machine_spec_error_names_the_bad_field(field, value):
    """A non-finite rate or size used to pass the ``<= 0`` checks and
    livelock the simulation instead of failing here."""
    want = "a positive integer" if field == "disks" else "positive and finite"
    with pytest.raises(ValueError, match=rf"^MachineSpec\.{field} must be {want}"):
        MachineSpec(**{field: value})


def test_cluster_spec_totals_and_validation():
    spec = ClusterSpec()
    assert spec.num_machines == 20
    assert spec.total_cores == 640
    assert spec.total_memory_mb == 20 * 128 * 1024
    with pytest.raises(ValueError):
        ClusterSpec(num_machines=0)
    with pytest.raises(ValueError):
        ClusterSpec(fabric="token-ring")


def test_with_network_changes_only_bandwidth():
    spec = ClusterSpec().with_network(1.0)
    assert spec.machine.net_gbps == 1.0
    assert spec.machine.cores == 32
    assert spec.num_machines == 20


def test_small_cluster_factory():
    spec = ClusterSpec.small(num_machines=3, cores=4)
    assert spec.num_machines == 3
    assert spec.machine.cores == 4


def test_cluster_builds_machines_and_fabric():
    cluster = Cluster(ClusterSpec.small(num_machines=3))
    assert len(cluster.machines) == 3
    assert isinstance(cluster.network, ReceiverSideFabric)
    assert cluster.machine(2).index == 2


def test_cluster_maxmin_fabric_option():
    spec = ClusterSpec.small(num_machines=2)
    cluster = Cluster(ClusterSpec(num_machines=2, machine=spec.machine, fabric="maxmin"))
    assert isinstance(cluster.network, MaxMinFabric)


def test_core_reservation_ledger():
    cluster = Cluster(ClusterSpec.small(num_machines=1, cores=8))
    m = cluster.machine(0)
    m.reserve_cores(4)
    assert m.allocated_cores == 4
    assert m.idle_cores == 4
    m.release_cores(3)
    assert m.allocated_cores == 1
    with pytest.raises(ValueError):
        m.release_cores(2)
    with pytest.raises(ValueError):
        m.reserve_cores(-1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_core_and_memory_amounts_rejected(bad):
    cluster = Cluster(ClusterSpec.small(num_machines=1, cores=8))
    m = cluster.machine(0)
    m.reserve_cores(4)
    m.use_memory(10.0)
    with pytest.raises(ValueError, match="cores to release"):
        m.release_cores(bad)
    with pytest.raises(ValueError, match="cores to reserve"):
        m.reserve_cores(bad)
    with pytest.raises(ValueError, match="memory to use"):
        m.use_memory(bad)
    with pytest.raises(ValueError, match="memory to un-use"):
        m.unuse_memory(bad)
    assert m.allocated_cores == 4
    m.unuse_memory(10.0)  # the in-use ledger kept its 10 MB


def test_memory_reservation_ledger():
    cluster = Cluster(ClusterSpec.small(num_machines=1))
    m = cluster.machine(0)
    assert m.try_reserve_memory(1024.0)
    assert m.allocated_memory == 1024.0
    assert m.memory.used == 1024.0
    m.release_memory(1024.0)
    assert m.allocated_memory == 0.0
    assert not m.try_reserve_memory(m.spec.memory_mb * 2)


def test_allocation_trace_integrates_to_core_seconds():
    cluster = Cluster(ClusterSpec.small(num_machines=1, cores=8))
    sim = cluster.sim
    m = cluster.machine(0)
    sim.schedule(1.0, m.reserve_cores, 4)
    sim.schedule(3.0, m.release_cores, 4)
    sim.drain()
    assert m.cpu_alloc.integral(0, 5.0) == pytest.approx(8.0)  # 4 cores * 2 s


def test_cpu_usage_flows_into_cluster_utilization():
    cluster = Cluster(ClusterSpec.small(num_machines=2, cores=4, core_rate_mbps=10.0))
    m0 = cluster.machine(0)
    m0.cpu.submit(100.0, lambda: None)  # 1 core for 10 s
    cluster.sim.drain()
    # one core of eight total busy for 10 of 10 seconds -> 1/8
    assert cluster.mean_utilization("cpu_used", 0, 10.0) == pytest.approx(1 / 8)
    per = cluster.per_machine_utilization("cpu_used", 0, 10.0)
    assert per[0] == pytest.approx(0.25)
    assert per[1] == 0.0


def test_network_usage_traced_through_fabric():
    cluster = Cluster(ClusterSpec.small(num_machines=2, cores=4))
    net_mbps = cluster.spec.machine.net_mbps
    cluster.network.start_transfer(1, [(0, net_mbps * 2.0)], lambda: None)  # 2 s at full rate
    cluster.sim.drain()
    assert cluster.machine(1).net_used.integral(0, 5.0) == pytest.approx(2.0)
    assert cluster.mean_utilization("net_used", 0, 2.0) == pytest.approx(0.5)


def test_utilization_timeseries_percent():
    cluster = Cluster(ClusterSpec.small(num_machines=1, cores=4, core_rate_mbps=10.0))
    m = cluster.machine(0)
    for _ in range(4):
        m.cpu.submit(20.0, lambda: None)  # all cores busy 2 s
    cluster.sim.drain()
    grid, vals = cluster.utilization_timeseries("cpu_used", 0.0, 4.0, dt=1.0)
    assert grid == [0.0, 1.0, 2.0, 3.0]
    assert vals[0] == pytest.approx(100.0)
    assert vals[1] == pytest.approx(100.0)
    assert vals[2] == pytest.approx(0.0)


UTILIZATION_KINDS = ("cpu_used", "cpu_alloc", "mem_used", "mem_alloc", "disk_used", "net_used")
UTILIZATION_METHODS = ("mean_utilization", "per_machine_utilization", "utilization_timeseries")


@pytest.mark.parametrize("method", UTILIZATION_METHODS)
@pytest.mark.parametrize("kind", UTILIZATION_KINDS)
def test_every_utilization_view_accepts_every_kind(kind, method):
    """One capacity table normalizes all three views: machine 0 runs at
    half its capacity for 2 s, machine 1 stays idle."""
    cluster = Cluster(ClusterSpec.small(num_machines=2, cores=4, disks=2))
    m = cluster.spec.machine
    cap = {"cpu": m.cores, "mem": m.memory_mb, "disk": m.disks, "net": 1.0}[kind.split("_")[0]]
    series = getattr(cluster.machine(0), kind)
    series.record(0.0, cap / 2)
    series.record(2.0, 0.0)
    result = getattr(cluster, method)(kind, 0.0, 2.0)
    if method == "mean_utilization":
        assert result == pytest.approx(0.25)
    elif method == "per_machine_utilization":
        assert result == pytest.approx([0.5, 0.0])
    else:
        assert result == (pytest.approx([0.0, 1.0]), pytest.approx([25.0, 25.0]))


@pytest.mark.parametrize("method", UTILIZATION_METHODS + ("integrate",))
def test_unknown_utilization_kind_names_the_valid_kinds(method):
    cluster = Cluster(ClusterSpec.small(num_machines=1))
    with pytest.raises(ValueError, match=r"'gpu_used'.*cpu_used, cpu_alloc, mem_used"):
        getattr(cluster, method)("gpu_used", 0.0, 1.0)


def test_integrate_sums_over_machines():
    cluster = Cluster(ClusterSpec.small(num_machines=2, cores=4, core_rate_mbps=10.0))
    cluster.machine(0).cpu.submit(100.0, lambda: None)
    cluster.machine(1).cpu.submit(50.0, lambda: None)
    cluster.sim.drain()
    assert cluster.integrate("cpu_used", 0, 20.0) == pytest.approx(15.0)  # 10+5 core-s
