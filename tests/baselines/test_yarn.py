"""Tests for the YARN-like RM and containers."""

import pytest

from repro.baselines import Container, YarnConfig, YarnRM
from repro.baselines.yarn import HEARTBEAT_INTERVAL
from repro.cluster import Cluster, ClusterSpec


class FakeApp:
    def __init__(self, app_id, cores=4, mem=1024.0, target=2):
        self.app_id = app_id
        self.container_cores = cores
        self.container_memory_mb = mem
        self._target = target
        self.granted = []
        self.finished = False

    def container_target(self):
        return self._target

    def num_containers(self):
        return len(self.granted)

    def grant_container(self, c):
        self.granted.append(c)


@pytest.fixture
def cluster():
    return Cluster(ClusterSpec.small(num_machines=2, cores=8))


def test_container_slots_lifecycle():
    c = Container(0, 0, 1, cores=4, memory_mb=1024.0, now=0.0)
    assert c.slots == 4 and c.free_slots == 4 and c.idle
    c.take_slot(1.0)
    assert c.used_slots == 1 and not c.idle and c.idle_since is None
    c.free_slot(2.0)
    assert c.idle and c.idle_since == 2.0
    with pytest.raises(RuntimeError):
        c.free_slot(3.0)


def test_yarn_config_validation():
    with pytest.raises(ValueError):
        YarnConfig(cpu_subscription_ratio=0.5)


def test_heartbeat_grants_after_interval(cluster):
    assert HEARTBEAT_INTERVAL == 1.0
    rm = YarnRM(cluster)
    app = FakeApp(0, target=2)
    rm.register_app(app)
    cluster.sim.run(until=0.5)
    assert app.granted == []  # nothing before the first heartbeat
    cluster.sim.run(until=1.5)
    assert len(app.granted) == 2


def test_grants_reserve_machine_resources(cluster):
    rm = YarnRM(cluster)
    app = FakeApp(0, cores=4, mem=1024.0, target=2)
    rm.register_app(app)
    cluster.sim.run(until=1.5)
    total_alloc = sum(m.allocated_cores for m in cluster.machines)
    assert total_alloc == 8
    total_mem = sum(m.allocated_memory for m in cluster.machines)
    assert total_mem == 2048.0


def test_grants_spread_round_robin(cluster):
    rm = YarnRM(cluster)
    app = FakeApp(0, cores=4, target=4)
    rm.register_app(app)
    cluster.sim.run(until=1.5)
    machines = sorted(c.machine_index for c in app.granted)
    assert machines == [0, 0, 1, 1]


def test_advertised_capacity_limits_grants(cluster):
    rm = YarnRM(cluster)  # 2 machines x 8 cores
    app = FakeApp(0, cores=8, target=5)
    rm.register_app(app)
    cluster.sim.run(until=2.5)
    assert len(app.granted) == 2  # one 8-core container per machine


def test_oversubscription_raises_advertised_capacity(cluster):
    rm = YarnRM(cluster, YarnConfig(cpu_subscription_ratio=2.0))
    app = FakeApp(0, cores=8, target=5)
    rm.register_app(app)
    cluster.sim.run(until=2.5)
    assert len(app.granted) == 4  # two 8-core containers per machine


def test_release_returns_resources(cluster):
    rm = YarnRM(cluster)
    app = FakeApp(0, cores=8, target=2)
    rm.register_app(app)
    cluster.sim.run(until=1.5)
    assert rm.advertised_free_cores(0) == 0
    rm.release_container(app.granted[0])
    idx = app.granted[0].machine_index
    assert rm.advertised_free_cores(idx) == 8
    # double release is a no-op
    rm.release_container(app.granted[0])
    assert rm.advertised_free_cores(idx) == 8


def test_fifo_ordering_prefers_earlier_app(cluster):
    rm = YarnRM(cluster)
    first = FakeApp(0, cores=8, target=2)
    second = FakeApp(1, cores=8, target=2)
    rm.register_app(first)
    rm.register_app(second)
    cluster.sim.run(until=1.5)
    assert len(first.granted) == 2
    assert len(second.granted) == 0


def test_memory_limits_grants(cluster):
    rm = YarnRM(cluster)
    mem = cluster.spec.machine.memory_mb
    app = FakeApp(0, cores=1, mem=mem, target=4)
    rm.register_app(app)
    cluster.sim.run(until=1.5)
    assert len(app.granted) == 2  # one memory-sized container per machine
