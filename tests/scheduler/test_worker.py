"""Tests for worker agents: concurrency control, rates, APT."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.dataflow import DepType, OpGraph, ResourceType
from repro.execution import Job, JobManager
from repro.scheduler import EarliestJobFirst, Worker
from repro.scheduler.worker import NETWORK_CONCURRENCY, SMALL_NETWORK_MB


class _RecordingBackend:
    def __init__(self):
        self.ready = []

    def on_tasks_ready(self, jm, tasks):
        self.ready.extend(tasks)

    def enqueue_monotask(self, jm, mt):
        # route everything through the single worker under test
        jm._test_worker.enqueue(jm, mt)

    def on_job_complete(self, jm):
        pass


def single_worker_setup(cores=2, n_tasks=4, size=10.0):
    cluster = Cluster(ClusterSpec.small(num_machines=2, cores=cores, core_rate_mbps=10.0))
    worker = Worker(cluster, 0, EarliestJobFirst())
    g = OpGraph("w")
    src = g.create_data(n_tasks)
    g.set_input(src, [size] * n_tasks)
    msg = g.create_data(n_tasks)
    ser = g.create_op(ResourceType.CPU, "ser").read(src).create(msg)
    sh = g.create_op(ResourceType.NETWORK, "sh").read(msg).create(g.create_data(n_tasks))
    ser.to(sh, DepType.SYNC)
    backend = _RecordingBackend()
    job = Job(0, g, 0.0, requested_memory_mb=1024.0)
    jm = JobManager(cluster.sim, cluster, job, backend)
    jm._test_worker = worker
    jm.start()
    return cluster, worker, jm, backend


def place_all(jm, worker):
    for task in list(jm.ready_tasks):
        worker.add_assigned_task(task)
        jm.place_task(task, worker.index)


def test_cpu_concurrency_limited_to_cores():
    cluster, worker, jm, backend = single_worker_setup(cores=2, n_tasks=6)
    place_all(jm, worker)
    # only 2 of the 6 CPU monotasks run at once
    assert worker.running[ResourceType.CPU] == 2
    assert len(worker.queues[ResourceType.CPU]) == 4
    cluster.sim.drain()
    assert worker.running[ResourceType.CPU] == 0
    # with 2-at-a-time, 6 tasks of 1 s take 3 s
    cpu_mts = [m for m in jm.job.plan.monotasks if m.rtype is ResourceType.CPU]
    assert max(m.finished_at for m in cpu_mts) == pytest.approx(3.0)


def test_machine_cpu_pool_never_oversubscribed_by_ursa():
    cluster, worker, jm, backend = single_worker_setup(cores=2, n_tasks=8)
    place_all(jm, worker)
    machine = cluster.machine(0)
    max_seen = 0
    sim = cluster.sim
    while sim.step():
        max_seen = max(max_seen, machine.cpu.active_count)
    assert max_seen <= 2


def test_network_concurrency_limit():
    assert NETWORK_CONCURRENCY == 2
    cluster, worker, jm, backend = single_worker_setup(n_tasks=6)
    place_all(jm, worker)
    cluster.sim.drain()
    # second stage tasks became ready; place them on the same worker
    place_all(jm, worker)
    assert worker.running[ResourceType.NETWORK] <= 2
    cluster.sim.drain()
    net_mts = [m for m in jm.job.plan.monotasks if m.rtype is ResourceType.NETWORK]
    assert all(m.finished_at is not None for m in net_mts)


def test_small_network_monotasks_bypass_queue():
    size = 0.00001
    assert size < SMALL_NETWORK_MB
    cluster, worker, jm, backend = single_worker_setup(n_tasks=6, size=size)
    place_all(jm, worker)
    cluster.sim.drain()
    place_all(jm, worker)
    # tiny transfers never enter the queue and never occupy a slot
    assert len(worker.queues[ResourceType.NETWORK]) == 0
    assert worker.running[ResourceType.NETWORK] == 0
    cluster.sim.drain()
    assert jm.job.done


def test_assigned_work_tracks_placement_and_completion():
    cluster, worker, jm, backend = single_worker_setup(n_tasks=4, size=10.0)
    assert worker.assigned_work[ResourceType.CPU] == 0.0
    place_all(jm, worker)
    assert worker.assigned_work[ResourceType.CPU] == pytest.approx(40.0)
    cluster.sim.drain()
    place_all(jm, worker)
    cluster.sim.drain()
    for r in worker.assigned_work.values():
        assert r == pytest.approx(0.0, abs=1e-6)


def test_apt_zero_when_cpu_idle():
    cluster, worker, jm, backend = single_worker_setup(cores=4, n_tasks=2)
    assert worker.apt(ResourceType.CPU) == 0.0
    place_all(jm, worker)
    # 2 running on 4 cores with assigned work backlogged: a CPU slot is
    # immediately available, so APT must still be exactly 0 (paper rule)
    assert worker.assigned_work[ResourceType.CPU] > 0.0
    assert worker.apt(ResourceType.CPU) == 0.0


def test_apt_positive_when_saturated():
    cluster, worker, jm, backend = single_worker_setup(cores=2, n_tasks=6, size=10.0)
    place_all(jm, worker)
    apt = worker.apt(ResourceType.CPU)
    # 60 MB assigned at 2 cores * 10 MB/s -> 3 s
    assert apt == pytest.approx(3.0, rel=0.05)


def test_processing_rate_learns_from_slow_tasks():
    """A worker whose CPU monotasks take 3x longer than their size suggests
    (cpu_work_factor) reports a lower measured rate."""
    cluster = Cluster(ClusterSpec.small(num_machines=1, cores=2, core_rate_mbps=10.0))
    worker = Worker(cluster, 0, EarliestJobFirst())
    g = OpGraph("slow")
    src = g.create_data(4)
    g.set_input(src, [10.0] * 4)
    op = g.create_op(ResourceType.CPU, "c").read(src).create(g.create_data(4))
    op.set_cpu_work_factor(3.0)

    backend = _RecordingBackend()
    job = Job(0, g, 0.0, 1024.0)
    jm = JobManager(cluster.sim, cluster, job, backend)
    jm._test_worker = worker
    jm.start()
    nominal = worker.processing_rate(ResourceType.CPU)
    place_all(jm, worker)
    cluster.sim.drain()
    assert worker.processing_rate(ResourceType.CPU) < nominal * 0.7


def test_rate_monitor_window_eviction_matches_recompute():
    """The incremental _x/_t sums must stay consistent with a from-scratch
    recompute over the nominal pseudo-sample plus the kept window."""
    import random

    from repro.scheduler.worker import _RateMonitor

    rng = random.Random(42)
    window, nominal = 5, 10.0
    mon = _RateMonitor(nominal_rate=nominal, window=window)
    samples = []
    for _ in range(40):
        w, d = rng.uniform(0.5, 20.0), rng.uniform(0.01, 3.0)
        mon.record(w, d)
        samples.append((w, d))
        kept = samples[-window:]
        assert len(mon._samples) == len(kept)
        x = nominal + sum(s[0] for s in kept)
        t = 1.0 + sum(s[1] for s in kept)
        assert mon.rate == pytest.approx(x / t, rel=1e-9)


def test_rate_monitor_ignores_degenerate_samples():
    from repro.scheduler.worker import _RateMonitor

    mon = _RateMonitor(nominal_rate=10.0, window=4)
    before = mon.rate
    mon.record(0.0, 1.0)    # no work
    mon.record(5.0, 0.0)    # no duration
    mon.record(-1.0, 1.0)   # negative work
    assert mon.rate == before
    assert len(mon._samples) == 0

