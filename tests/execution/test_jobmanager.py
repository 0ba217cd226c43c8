"""End-to-end tests of the execution layer (JM + JP) with a greedy backend."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.dataflow import DepType, MonotaskState, OpGraph, ResourceType, TaskState
from repro.execution import Job, JobManager, JobState

from .helpers import GreedyBackend, run_job


def shuffle_graph(p_in=3, p_out=2, size=10.0):
    g = OpGraph("shuffle")
    src = g.create_data(p_in, "src")
    g.set_input(src, [size] * p_in)
    msg = g.create_data(p_in, "msg")
    out = g.create_data(p_out, "out")
    res = g.create_data(p_out, "res")
    ser = g.create_op(ResourceType.CPU, "ser").read(src).create(msg)
    sh = g.create_op(ResourceType.NETWORK, "sh").read(msg).create(out)
    de = g.create_op(ResourceType.CPU, "de").read(out).create(res)
    ser.to(sh, DepType.SYNC)
    sh.to(de, DepType.ASYNC)
    return g


def test_job_runs_to_completion():
    job, jm, cluster, backend = run_job(shuffle_graph())
    assert job.state is JobState.DONE
    assert job.finish_time is not None and job.finish_time > 0
    assert backend.completed_jobs == [job]
    assert all(t.state is TaskState.DONE for t in job.plan.tasks)


def test_every_monotask_ran_exactly_once():
    job, jm, cluster, backend = run_job(shuffle_graph())
    for mt in job.plan.monotasks:
        assert mt.started_at is not None
        assert mt.finished_at is not None
        assert mt.finished_at >= mt.started_at


def test_execution_time_matches_analytic_model():
    """One CPU monotask of 10 MB at 10 MB/s must take exactly 1 s."""
    g = OpGraph("single")
    src = g.create_data(1)
    g.set_input(src, [10.0])
    g.create_op(ResourceType.CPU, "c").read(src).create(g.create_data(1))
    job, jm, cluster, _ = run_job(g)
    mt = job.plan.monotasks[0]
    assert mt.finished_at - mt.started_at == pytest.approx(1.0)


def test_shuffle_moves_expected_bytes():
    """Each deser task pulls 1/p_out of each msg partition."""
    job, jm, cluster, _ = run_job(shuffle_graph(p_in=3, p_out=2, size=10.0))
    net_mts = [m for m in job.plan.monotasks if m.rtype is ResourceType.NETWORK]
    for m in net_mts:
        assert m.input_size_mb == pytest.approx(15.0)  # 3 partitions * 10/2
        assert len(m.sources) == 3


def test_metadata_records_partition_locations():
    job, jm, cluster, _ = run_job(shuffle_graph())
    res = job.graph.datasets[-1]
    for i in range(res.num_partitions):
        rec = jm.metadata.get(res, i)
        assert rec.location is not None
        assert 0 <= rec.location < cluster.num_machines


def test_cpu_work_factor_scales_duration_not_estimate():
    g = OpGraph()
    src = g.create_data(1)
    g.set_input(src, [10.0])
    op = g.create_op(ResourceType.CPU, "heavy").read(src).create(g.create_data(1))
    op.set_cpu_work_factor(3.0)
    job, jm, cluster, _ = run_job(g)
    mt = job.plan.monotasks[0]
    assert mt.input_size_mb == pytest.approx(10.0)   # estimate = input size
    assert mt.work_mb == pytest.approx(30.0)         # actual work scaled
    assert mt.finished_at - mt.started_at == pytest.approx(3.0)


def test_size_fn_shrinks_downstream_sizes():
    g = OpGraph()
    src = g.create_data(2)
    g.set_input(src, [10.0, 10.0])
    a = g.create_op(ResourceType.CPU, "filter").read(src).create(g.create_data(2))
    a.set_output_size(lambda i, s: s * 0.1)
    net = g.create_op(ResourceType.NETWORK, "sh").read(a.output).create(g.create_data(2))
    b = g.create_op(ResourceType.CPU, "agg").read(net.output).create(g.create_data(2))
    a.to(net, DepType.SYNC)
    net.to(b, DepType.ASYNC)
    job, jm, cluster, _ = run_job(g)
    net_mts = [m for m in job.plan.monotasks if m.rtype is ResourceType.NETWORK]
    for m in net_mts:
        assert m.input_size_mb == pytest.approx(1.0)  # (10*0.1)/2 per src * 2


def test_disk_read_and_write_pipeline():
    g = OpGraph("diskio")
    src = g.create_data(2)
    g.set_input(src, [15.0, 15.0])
    loaded = g.create_data(2)
    rd = g.create_op(ResourceType.DISK, "read").read(src).create(loaded)
    comp = g.create_op(ResourceType.CPU, "comp").read(loaded).create(g.create_data(2))
    wr = g.create_op(ResourceType.DISK, "write").read(comp.output).create(g.create_data(2))
    rd.to(comp, DepType.ASYNC)
    comp.to(wr, DepType.ASYNC)
    job, jm, cluster, _ = run_job(g)
    assert job.done
    disk_mts = [m for m in job.plan.monotasks if m.rtype is ResourceType.DISK]
    assert len(disk_mts) == 4
    assert all(m.input_size_mb == pytest.approx(15.0) for m in disk_mts)
    # read+compute+write collocate into one task per partition
    assert len(job.plan.tasks) == 2


def test_memory_reserved_during_task_and_released_after():
    cluster = Cluster(ClusterSpec.small(num_machines=1, cores=4, core_rate_mbps=10.0))
    g = OpGraph()
    src = g.create_data(1)
    g.set_input(src, [10.0])
    g.create_op(ResourceType.CPU, "c").read(src).create(g.create_data(1))
    job, jm, cluster, _ = run_job(g, cluster=cluster)
    m = cluster.machine(0)
    assert m.memory.used == 0.0
    # memory was held exactly while the task ran (1 s)
    task = job.plan.tasks[0]
    expected = task.est_mem_mb * 1.0
    assert m.mem_used.integral(0, 10.0) == pytest.approx(expected)


def test_memory_estimate_uses_m2i_cap():
    g = OpGraph()
    src = g.create_data(1)
    g.set_input(src, [10.0])
    op = g.create_op(ResourceType.CPU, "c").read(src).create(g.create_data(1))
    op.set_m2i(2.0)
    job, jm, cluster, _ = run_job(g, requested_memory_mb=100000.0)
    task = job.plan.tasks[0]
    assert task.est_mem_mb == pytest.approx(20.0)  # m2i * I(t), not r*M(j)


def test_remaining_work_drains_to_zero():
    job, jm, cluster, _ = run_job(shuffle_graph())
    for rtype, rem in job.remaining_work.items():
        assert rem == pytest.approx(0.0, abs=1e-6)


def test_locality_constraint_from_cached_dataset():
    """A second stage reading partitions produced earlier must be pinned to
    the machine that holds them (in-memory reuse, e.g. iterative ML)."""
    g = OpGraph("iter")
    src = g.create_data(2)
    g.set_input(src, [10.0, 10.0])
    cache = g.create_data(2, "cache")
    load = g.create_op(ResourceType.CPU, "load").read(src).create(cache)
    # a shuffle barrier so the second reader is in a separate task
    msg = g.create_data(2)
    stat = g.create_op(ResourceType.CPU, "stat").read(cache).create(msg)
    sh = g.create_op(ResourceType.NETWORK, "sh").read(msg).create(g.create_data(2))
    it2 = g.create_op(ResourceType.CPU, "it2").read(sh.output, cache).create(g.create_data(2))
    load.to(stat, DepType.ASYNC)
    stat.to(sh, DepType.SYNC)
    sh.to(it2, DepType.ASYNC)

    job, jm, cluster, backend = run_job(g)
    assert job.done
    # the it2 tasks read `cache`; their locality had to match where load ran
    it2_tasks = [
        t
        for t in job.plan.tasks
        if any(op.name == "it2" for m in t.monotasks for op in m.ops)
    ]
    assert it2_tasks
    for t in it2_tasks:
        assert t.locality is not None
        assert t.worker == t.locality


def test_task_timestamps_monotone():
    job, jm, cluster, _ = run_job(shuffle_graph())
    for t in job.plan.tasks:
        assert t.ready_at is not None
        assert t.placed_at is not None and t.placed_at >= t.ready_at
        assert t.finished_at is not None and t.finished_at >= t.placed_at


def test_job_jct_accounting():
    job, jm, cluster, _ = run_job(shuffle_graph())
    assert job.jct == pytest.approx(job.finish_time - job.submit_time)
    assert job.cpu_seconds_used > 0


def test_one_job_process_aborts_one_worker_and_spares_the_other():
    """The JM runs the job's monotasks on every worker its tasks hold;
    aborting one worker's monotask leaves the other worker's monotask of
    the same job running to completion."""
    cluster = Cluster(ClusterSpec.small(num_machines=2, cores=4, core_rate_mbps=10.0))
    g = OpGraph("two-workers")
    src = g.create_data(2)
    g.set_input(src, [10.0, 10.0])
    out = g.create_data(2)
    g.create_op(ResourceType.CPU, "c").read(src).create(out)
    job = Job(0, g, submit_time=0.0, requested_memory_mb=1024.0)
    jm = JobManager(cluster.sim, cluster, job, GreedyBackend(cluster))
    jm.start()
    cluster.sim.run(until=0.5)
    aborted, spared = job.plan.monotasks
    assert {aborted.task.worker, spared.task.worker} == {0, 1}
    assert aborted.state is spared.state is MonotaskState.RUNNING
    # half of the 10 MB was served at 10 MB/s before the abort
    assert jm.abort_monotask(aborted) == pytest.approx(5.0)
    cluster.sim.drain()
    assert spared.state is MonotaskState.DONE
    assert spared.finished_at == pytest.approx(1.0)
    assert jm.metadata.find(out, spared.partition_index) is not None
    # the aborted monotask never reported: the caller owns its rewind
    assert aborted.finished_at is None
    assert jm.metadata.find(out, aborted.partition_index) is None
    assert job.state is JobState.ADMITTED
    assert all(m.allocated_cores == 0 for m in cluster.machines)


def test_aborted_zero_work_monotask_ignores_its_stale_completion():
    """A zero-work monotask completes through a call_soon no abort can
    withdraw.  Aborted and rewound before that call_soon fires, it must not
    report to the JM, record its output or release its core twice."""
    cluster = Cluster(ClusterSpec.small(num_machines=2, cores=4, core_rate_mbps=10.0))
    g = OpGraph("zero-work")
    src = g.create_data(2)
    g.set_input(src, [10.0, 0.0])
    out = g.create_data(2)
    g.create_op(ResourceType.CPU, "c").read(src).create(out)
    job = Job(0, g, submit_time=0.0, requested_memory_mb=1024.0)
    jm = JobManager(cluster.sim, cluster, job, GreedyBackend(cluster))
    reported = []
    finished = jm.monotask_finished
    jm.monotask_finished = lambda mt: (reported.append(mt), finished(mt))
    jm.start()
    zero = next(m for m in job.plan.monotasks if m.partition_index == 1)
    while zero.state is not MonotaskState.RUNNING:
        assert cluster.sim.step()
    assert zero.work_mb == 0.0
    assert cluster.sim.events_pending  # its completion is still queued
    assert jm.abort_monotask(zero) == 0.0
    jm.fault_rewind_task(zero.task)
    cluster.sim.drain()
    assert zero not in reported
    assert zero.state is MonotaskState.PENDING and zero.finished_at is None
    assert jm.metadata.find(out, 1) is None
    assert [mt.partition_index for mt in reported] == [0]
    assert all(m.allocated_cores == 0 for m in cluster.machines)
