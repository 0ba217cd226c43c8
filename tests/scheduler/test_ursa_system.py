"""Integration tests for the full UrsaSystem."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.dataflow import DepType, OpGraph, ResourceType
from repro.execution import JobState
from repro.scheduler import UrsaConfig, UrsaSystem
from repro.scheduler.ursa import JM_CREATION_DELAY, SCHEDULING_INTERVAL


def shuffle_job(name, p=8, size=25.0, depth=1):
    g = OpGraph(name)
    src = g.create_data(p)
    g.set_input(src, [size] * p)
    data = src
    prev = None
    for d in range(depth):
        cpu = g.create_op(ResourceType.CPU, f"c{d}").read(data).create(g.create_data(p))
        if prev is not None:
            prev.to(cpu, DepType.ASYNC)
        net = g.create_op(ResourceType.NETWORK, f"n{d}").read(cpu.output).create(g.create_data(p))
        cpu.to(net, DepType.SYNC)
        data, prev = net.output, net
    final = g.create_op(ResourceType.CPU, "final").read(data).create(g.create_data(p))
    prev.to(final, DepType.ASYNC)
    return g


def small_cluster():
    return Cluster(ClusterSpec.small(num_machines=4, cores=8, core_rate_mbps=25.0))


def test_single_job_completes():
    ursa = UrsaSystem(small_cluster())
    job = ursa.submit(shuffle_job("j0"), requested_memory_mb=1024.0)
    ursa.run(max_events=200_000)
    assert job.state is JobState.DONE
    assert ursa.all_done
    assert ursa.makespan() > 0


def test_many_jobs_complete_with_staggered_arrivals():
    ursa = UrsaSystem(small_cluster())
    jobs = [
        ursa.submit(shuffle_job(f"j{i}", depth=2), 1024.0, at=i * 0.5)
        for i in range(8)
    ]
    ursa.run(max_events=2_000_000)
    assert all(j.done for j in jobs)
    assert len(ursa.completed_jobs) == 8


def test_future_submission_waits():
    ursa = UrsaSystem(small_cluster())
    job = ursa.submit(shuffle_job("later"), 1024.0, at=10.0)
    ursa.run(until=5.0)
    assert job.state is JobState.SUBMITTED
    ursa.run(max_events=200_000)
    assert job.done
    assert job.admit_time >= 10.0


def test_scheduling_interval_delays_placement():
    """Tasks wait at most ~one scheduling interval before being placed."""
    assert (JM_CREATION_DELAY, SCHEDULING_INTERVAL) == (0.05, 0.25)
    ursa = UrsaSystem(small_cluster())
    job = ursa.submit(shuffle_job("j"), 1024.0)
    plan = job.plan  # a finished job is retired: hold its plan first
    ursa.run(max_events=200_000)
    first = min(t.placed_at for t in plan.tasks if t.placed_at is not None)
    # jm creation delay + <= 1 interval (+eps)
    assert first <= 0.05 + 0.25 + 0.26


def test_memory_admission_serializes_big_jobs():
    cluster = small_cluster()
    total = cluster.total_memory_mb
    ursa = UrsaSystem(cluster)
    a = ursa.submit(shuffle_job("a"), total * 0.7)
    b = ursa.submit(shuffle_job("b"), total * 0.7)
    ursa.run(max_events=400_000)
    assert a.done and b.done
    # b could only be admitted after a finished
    assert b.admit_time >= a.finish_time


def test_ejf_orders_completion_by_submission():
    ursa = UrsaSystem(small_cluster(), UrsaConfig(policy="ejf", policy_weight=0.2))
    jobs = [
        ursa.submit(shuffle_job(f"j{i}", p=16, size=50.0), 1024.0, at=0.5 * i)
        for i in range(4)
    ]
    ursa.run(max_events=2_000_000)
    finish = [j.finish_time for j in jobs]
    assert finish == sorted(finish)


def test_srjf_improves_mean_jct_on_mixed_sizes():
    """Small jobs contending with a deep big job finish earlier under SRJF,
    at a slight cost in makespan — the paper's Table 2 trade-off."""

    def run(policy):
        cluster = Cluster(ClusterSpec.small(num_machines=2, cores=4, core_rate_mbps=25.0))
        ursa = UrsaSystem(cluster, UrsaConfig(policy=policy, policy_weight=0.5))
        ursa.submit(shuffle_job("big", p=8, size=50.0, depth=8), 2048.0, at=0.0)
        for i in range(10):
            ursa.submit(shuffle_job(f"s{i}", p=4, size=12.5), 256.0, at=0.5 + 0.05 * i)
        ursa.run(max_events=5_000_000)
        assert ursa.all_done
        return ursa.mean_jct(), ursa.makespan()

    srjf_jct, srjf_makespan = run("srjf")
    ejf_jct, ejf_makespan = run("ejf")
    assert srjf_jct < ejf_jct
    assert srjf_makespan >= ejf_makespan * 0.95  # SRJF trades makespan away


def test_cpu_network_overlap_between_jobs():
    """While one job shuffles, another job's CPU monotasks use the cores:
    cluster CPU usage with two interleaved jobs must exceed a single job's."""

    def cpu_busy_fraction(n_jobs):
        cluster = small_cluster()
        ursa = UrsaSystem(cluster)
        for i in range(n_jobs):
            ursa.submit(shuffle_job(f"j{i}", p=32, size=60.0, depth=3), 1024.0)
        ursa.run(max_events=3_000_000)
        assert ursa.all_done
        return cluster.mean_utilization("cpu_used", 0.0, ursa.makespan())

    one = cpu_busy_fraction(1)
    four = cpu_busy_fraction(4)
    assert four > one * 1.3


def test_ursa_se_equals_ue_for_cpu():
    """In Ursa a core is reserved exactly while a monotask drives it, so the
    allocated-core and used-core integrals coincide."""
    cluster = small_cluster()
    ursa = UrsaSystem(cluster)
    ursa.submit(shuffle_job("j", p=16, size=40.0, depth=2), 1024.0)
    ursa.run(max_events=1_000_000)
    end = ursa.makespan() + 1.0
    alloc = cluster.integrate("cpu_alloc", 0, end)
    used = cluster.integrate("cpu_used", 0, end)
    assert alloc == pytest.approx(used, rel=1e-6)
    assert alloc > 0


def test_no_memory_leak_after_all_jobs():
    cluster = small_cluster()
    ursa = UrsaSystem(cluster)
    for i in range(4):
        ursa.submit(shuffle_job(f"j{i}"), 2048.0, at=i * 0.3)
    ursa.run(max_events=1_000_000)
    for m in cluster.machines:
        assert m.memory.used == pytest.approx(0.0, abs=1e-6)
        assert m.allocated_cores == 0
    assert ursa.admission.reserved_mb == pytest.approx(0.0, abs=1e-6)


def test_monotask_ordering_disabled_still_completes():
    ursa = UrsaSystem(small_cluster(), UrsaConfig(job_ordering=False, monotask_ordering=False))
    jobs = [ursa.submit(shuffle_job(f"j{i}"), 1024.0, at=0.2 * i) for i in range(4)]
    ursa.run(max_events=1_000_000)
    assert all(j.done for j in jobs)


def test_locality_pinned_tasks_run_at_their_machine():
    """Iterative jobs that cache data run dependents where the cache lives."""
    g = OpGraph("iter")
    p = 4
    src = g.create_data(p)
    g.set_input(src, [20.0] * p)
    cache = g.create_data(p, "cache")
    load = g.create_op(ResourceType.CPU, "load").read(src).create(cache)
    msg = g.create_data(p)
    stat = g.create_op(ResourceType.CPU, "stat").read(cache).create(msg)
    sh = g.create_op(ResourceType.NETWORK, "sh").read(msg).create(g.create_data(p))
    upd = g.create_op(ResourceType.CPU, "upd").read(sh.output, cache).create(g.create_data(p))
    load.to(stat, DepType.ASYNC)
    stat.to(sh, DepType.SYNC)
    sh.to(upd, DepType.ASYNC)

    ursa = UrsaSystem(small_cluster())
    job = ursa.submit(g, 1024.0)
    plan = job.plan
    ursa.run(max_events=500_000)
    assert job.done
    upd_tasks = [
        t for t in plan.tasks
        if any(op.name == "upd" for m in t.monotasks for op in m.ops)
    ]
    assert upd_tasks
    for t in upd_tasks:
        assert t.locality is not None and t.worker == t.locality
