"""Tests for executor-model systems (Y+S, Y+T, Y+U) and placement variants."""

import math

import pytest

from repro.baselines import (
    CapacityPlacement,
    ExecutorConfig,
    MonoSparkApp,
    TetrisPlacement,
    YarnConfig,
    YarnSystem,
    spark_config,
    tez_config,
)
from repro.cluster import Cluster, ClusterSpec
from repro.dataflow import DepType, OpGraph, ResourceType
from repro.scheduler import UrsaConfig, UrsaSystem


def shuffle_job(name, p=16, size=25.0, depth=2, expand=4.0):
    """Shuffle-heavy job: the pre-shuffle op expands data so network phases
    are a meaningful fraction of CPU time (like real OLAP intermediates)."""
    g = OpGraph(name)
    src = g.create_data(p)
    g.set_input(src, [size] * p)
    data, prev = src, None
    for d in range(depth):
        cpu = g.create_op(ResourceType.CPU, f"c{d}").read(data).create(g.create_data(p))
        cpu.set_output_size(lambda i, s, e=expand: s * e)
        if prev is not None:
            prev.to(cpu, DepType.ASYNC)
        net = g.create_op(ResourceType.NETWORK, f"n{d}").read(cpu.output).create(g.create_data(p))
        cpu.to(net, DepType.SYNC)
        data, prev = net.output, net
    fin = g.create_op(ResourceType.CPU, "fin").read(data).create(g.create_data(p))
    prev.to(fin, DepType.ASYNC)
    return g


def fresh_cluster():
    # modest downlink so fetch phases are visible
    return Cluster(
        ClusterSpec.small(num_machines=4, cores=8, core_rate_mbps=25.0, net_gbps=2.0)
    )


def run_workload(system, n_jobs=6, mem=4096.0):
    jobs = [
        system.submit(shuffle_job(f"j{i}"), mem, at=i * 1.0) for i in range(n_jobs)
    ]
    system.run(max_events=8_000_000)
    assert system.all_done
    return jobs


def cpu_ue(system):
    cl = system.cluster
    end = system.makespan() + 1.0
    alloc = cl.integrate("cpu_alloc", 0, end)
    used = cl.integrate("cpu_used", 0, end)
    return used / max(alloc, 1e-9)


def test_spark_system_completes_all_jobs():
    system = YarnSystem(fresh_cluster(), spark_config(container_memory_mb=2048))
    jobs = run_workload(system)
    assert all(j.done for j in jobs)
    assert len(system.completed_jobs) == len(jobs)


def test_tez_system_completes_all_jobs():
    system = YarnSystem(fresh_cluster(), tez_config(container_memory_mb=2048))
    jobs = run_workload(system)
    assert all(j.done for j in jobs)


def test_monospark_system_completes_all_jobs():
    system = YarnSystem(
        fresh_cluster(), spark_config(container_memory_mb=2048), app_class=MonoSparkApp
    )
    jobs = run_workload(system)
    assert all(j.done for j in jobs)


def test_executor_config_validation():
    with pytest.raises(ValueError):
        ExecutorConfig(container_cores=0)
    with pytest.raises(ValueError):
        ExecutorConfig(container_memory_mb=0)
    with pytest.raises(ValueError):
        ExecutorConfig(idle_timeout=-1.0)


@pytest.mark.parametrize("build, field, value", [
    (spark_config, "idle_timeout", math.nan),
    (spark_config, "idle_timeout", math.inf),
    (spark_config, "container_memory_mb", math.nan),
    (spark_config, "container_memory_mb", math.inf),
    (spark_config, "container_cores", 2.5),
    (spark_config, "container_cores", True),
    (tez_config, "container_cores", 2.0),
    (YarnConfig, "cpu_subscription_ratio", math.nan),
    (YarnConfig, "cpu_subscription_ratio", math.inf),
], ids=lambda p: getattr(p, "__name__", None))
def test_config_rejects_bad_field_at_construction(build, field, value):
    """Values that used to fail mid-run (a non-finite idle delay, a float
    core count), livelock (NaN container memory) or silently mean unlimited
    over-subscription (NaN ratio) are refused up front, naming the field."""
    with pytest.raises(ValueError, match=field):
        build(**{field: value})


def test_spark_and_tez_presets_match_paper():
    s = spark_config()
    assert s.container_cores == 4 and s.container_memory_mb == 8192 and s.idle_timeout == 2.0
    t = tez_config()
    assert t.container_cores == 2 and t.container_memory_mb == 6144
    assert t.hold_until_job_end


def test_ursa_beats_spark_on_cpu_ue():
    """The headline claim: Ursa's UE_cpu is far higher than Y+S's because
    containers hold cores through fetch phases."""
    ursa = UrsaSystem(fresh_cluster())
    run_workload(ursa)
    spark = YarnSystem(fresh_cluster(), spark_config(container_memory_mb=2048))
    run_workload(spark)
    assert cpu_ue(ursa) > 0.95
    assert cpu_ue(spark) < 0.9
    assert ursa.makespan() <= spark.makespan() * 1.05


@pytest.mark.parametrize("system_of", [
    UrsaSystem,
    lambda cluster: YarnSystem(cluster, spark_config()),
    lambda cluster: YarnSystem(cluster, tez_config()),
], ids=["ursa", "y+s", "y+t"])
def test_cpu_work_is_conserved_across_systems(system_of):
    """Every system drives the workload's CPU work exactly once: each job's
    three CPU stages read 400, 1,600 and 6,400 MB at the core rate.  The
    cores reserved cover the cores driven; Ursa reserves only what runs."""
    cluster = fresh_cluster()
    system = system_of(cluster)
    run_workload(system)
    end = cluster.sim.now
    used = cluster.integrate("cpu_used", 0.0, end)
    alloc = cluster.integrate("cpu_alloc", 0.0, end)
    work_mb = cluster.spec.machine.core_rate_mbps * used
    assert work_mb == pytest.approx(6 * (400 + 1600 + 6400), rel=1e-9)
    assert used <= alloc
    if isinstance(system, UrsaSystem):
        assert used == pytest.approx(alloc, rel=1e-9)


def test_containers_released_after_all_jobs():
    system = YarnSystem(fresh_cluster(), spark_config(container_memory_mb=2048))
    run_workload(system, n_jobs=3)
    for m in system.cluster.machines:
        assert m.allocated_cores == 0
        assert m.memory.used == pytest.approx(0.0, abs=1e-6)
        assert m.memory_in_use == pytest.approx(0.0, abs=1e-6)


def test_tez_holds_containers_until_job_end():
    """With hold_until_job_end the app's containers never shrink mid-job, so
    allocation stays at its peak until completion."""
    cluster = fresh_cluster()
    system = YarnSystem(cluster, tez_config(container_memory_mb=2048))
    job = system.submit(shuffle_job("t", depth=3), 4096.0)
    system.run(max_events=2_000_000)
    assert job.done
    alloc = cluster.machine(0).cpu_alloc
    # allocation on machine 0 is monotonically non-decreasing until release
    peak_reached = False
    for t, v in zip(alloc.times, alloc.values):
        if v == max(alloc.values):
            peak_reached = True
        if peak_reached and t < job.finish_time - 1e-6:
            assert v >= max(alloc.values) - 1e-9 or t < job.finish_time


def test_spark_releases_idle_containers():
    """Dynamic allocation: after a burst, allocation drops within ~idle_timeout."""
    cluster = fresh_cluster()
    system = YarnSystem(cluster, spark_config(container_memory_mb=2048, idle_timeout=1.0))
    job = system.submit(shuffle_job("s", depth=1), 4096.0)
    system.run(max_events=2_000_000)
    total_alloc = sum(m.allocated_cores for m in cluster.machines)
    assert total_alloc == 0
    # and the drop happened shortly after the job finished, not long after
    last_change = max(m.cpu_alloc.times[-1] for m in cluster.machines)
    assert last_change <= job.finish_time + 1.5 + 1e-6


def test_oversubscription_contends_cpu():
    """Ratio 2 admits twice the compute phases; the fluid CPU slows down, so
    per-monotask durations stretch but makespan can improve (more overlap)."""

    def run(ratio):
        cluster = fresh_cluster()
        system = YarnSystem(
            cluster,
            spark_config(container_memory_mb=2048),
            YarnConfig(cpu_subscription_ratio=ratio),
        )
        run_workload(system)
        return system

    base = run(1.0)
    over = run(2.0)
    # allocation can exceed physical capacity only when oversubscribed
    end_b = base.makespan()
    end_o = over.makespan()
    peak_alloc_base = max(
        max(m.cpu_alloc.values) for m in base.cluster.machines
    )
    peak_alloc_over = max(
        max(m.cpu_alloc.values) for m in over.cluster.machines
    )
    assert peak_alloc_base <= 8 + 1e-9
    assert peak_alloc_over > 8
    assert end_o <= end_b * 1.1  # oversubscription helps (or is ~neutral)


# ----------------------------------------------------------------------
# Tetris / Capacity placement variants inside Ursa
# ----------------------------------------------------------------------
def test_tetris_placement_completes_workload():
    cluster = fresh_cluster()
    ursa = UrsaSystem(cluster, UrsaConfig(placement=TetrisPlacement()))
    jobs = run_workload(ursa)
    assert all(j.done for j in jobs)


def test_tetris2_placement_completes_workload():
    cluster = fresh_cluster()
    ursa = UrsaSystem(cluster, UrsaConfig(placement=TetrisPlacement(include_network=False)))
    jobs = run_workload(ursa)
    assert all(j.done for j in jobs)


def test_capacity_placement_completes_workload():
    cluster = fresh_cluster()
    ursa = UrsaSystem(cluster, UrsaConfig(placement=CapacityPlacement()))
    jobs = run_workload(ursa)
    assert all(j.done for j in jobs)


@pytest.mark.parametrize(
    "make", [TetrisPlacement, CapacityPlacement], ids=["tetris", "capacity"])
def test_baseline_placement_skips_dead_workers(make):
    """A crashed worker's counts and queues are empty, so it looks idle; the
    peak-demand policies must still never place on it.  Under fig_faults'
    two-crash plan the workload finishes and no assignment targets a worker
    that is dead at placement time."""
    from repro.experiments.common import SCALES
    from repro.experiments.fig_faults import RETRY, build_plan
    from repro.experiments.table2_tpch import workload
    from repro.workloads import submit_workload

    sc = SCALES["tiny"]
    policy = make()
    on_dead = []
    place = policy.place

    def checked_place(ready, workers, now, job_policy):
        out = place(ready, workers, now, job_policy)
        on_dead.extend(a.worker for a in out if not workers[a.worker].alive)
        return out

    policy.place = checked_place
    config = UrsaConfig(placement=policy, faults=build_plan(sc, 2, 0), retry=RETRY)
    system = UrsaSystem(Cluster(sc.cluster), config)
    submit_workload(system, workload(sc), seed=0)
    system.run(max_events=sc.max_events)
    assert system.all_terminal
    assert on_dead == []


def test_tetris_blocks_on_network_demand():
    """Tetris refuses to collocate two network-bearing tasks in one round;
    Tetris2 does not (the §5.1.2 pathology)."""
    from repro.scheduler.placement import ReadyStage
    from repro.scheduler import EarliestJobFirst, Worker
    from repro.execution import Job, JobManager

    class _B:
        def on_tasks_ready(self, jm, tasks):
            pass

        def enqueue_monotask(self, jm, mt):
            pass

        def on_job_complete(self, jm):
            pass

    cluster = fresh_cluster()
    g = shuffle_job("x", p=2, depth=1)
    job = Job(0, g, 0.0, 1024.0)
    jm = JobManager(cluster.sim, cluster, job, _B())
    jm.start()
    # move to the stage with network monotasks: finish stage 1 virtually by
    # marking its tasks' estimates; instead simply use ready tasks that have
    # network usage by picking a single worker
    workers = [Worker(cluster, i, EarliestJobFirst()) for i in range(1)]
    ready = [ReadyStage(jm, t.stage, [t]) for t in jm.ready_tasks]
    # ready tasks here are CPU-only (stage 1), so give them fake net demand
    for rs in ready:
        for t in rs.tasks:
            t.est_net_mb = 10.0
    tetris = TetrisPlacement()
    placed = tetris.place(ready, workers, 0.0, EarliestJobFirst())
    assert len(placed) == 1  # second task blocked by network peak demand
    tetris2 = TetrisPlacement(include_network=False)
    for rs in ready:
        for t in rs.tasks:
            t.state = t.state  # unchanged; fresh placement run
    placed2 = tetris2.place(ready, workers, 0.0, EarliestJobFirst())
    assert len(placed2) == 2
