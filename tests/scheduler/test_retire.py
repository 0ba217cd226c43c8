"""Job retirement: a terminal job keeps its record, not its JM, plan or graph.

``UrsaSystem`` forgets a job's :class:`JobManager` and the job drops its
graph and plan once it is DONE or FAILED.  The JM holds no reference cycle,
so reference counting frees it when the job retires.  The plan cuts its own
cycles when its last holder lets go, so reference counting frees its
monotasks and tasks too, while a plan a caller still holds stays intact.
These tests hold only weak references to what must be released (or, for
the slotted monotasks and tasks, count them with the collector off), and
check that late events for a failed job still find the plan through its JM.
"""

import gc
import weakref

import pytest

from repro.api import UrsaContext
from repro.cluster import Cluster, ClusterSpec
from repro.dataflow import DepType, Monotask, OpGraph, ResourceType, Task
from repro.execution import jobmanager as jobmanager_mod
from repro.execution.job import JobState
from repro.experiments import fig_service
from repro.experiments.common import SCALES
from repro.faults import (
    FaultPlan,
    GrantTimeout,
    RetryPolicy,
    WorkerBlackout,
    WorkerCrash,
)
from repro.metrics import job_straggler_ratio
from repro.obs import recorder
from repro.scheduler import UrsaConfig, UrsaSystem
from repro.workloads import submit_workload, tpch_workload

JobManager = jobmanager_mod.JobManager

#: a grant timeout on worker 0 re-queues its victim 3 s later, but worker 0
#: crashes first and charges the victim's task a second time, over the
#: budget of one: its job fails with the re-queue still pending
LATE_PLAN = FaultPlan((
    GrantTimeout(at=2.0, worker=0, delay=3.0),
    WorkerCrash(at=2.5, worker=0),
    WorkerBlackout(at=3.0, worker=1, duration=4.0),
))


@pytest.fixture
def jm_refs(monkeypatch):
    """job id -> weak reference to the JobManager built for it."""
    refs: dict[int, weakref.ref] = {}
    init = JobManager.__init__

    def tracked(self, sim, cluster, job, *args, **kwargs):
        init(self, sim, cluster, job, *args, **kwargs)
        refs[job.job_id] = weakref.ref(self)

    monkeypatch.setattr(JobManager, "__init__", tracked)
    return refs


def _track_submissions(system) -> dict[int, tuple[weakref.ref, weakref.ref]]:
    """Wrap ``system.submit`` to keep weak references to each plan and graph."""
    refs: dict[int, tuple[weakref.ref, weakref.ref]] = {}
    submit = system.submit

    def tracked(*args, **kwargs):
        job = submit(*args, **kwargs)
        refs[job.job_id] = (weakref.ref(job.plan), weakref.ref(job.graph))
        return job

    system.submit = tracked
    return refs


def _assert_released(system, jm_refs, held) -> int:
    gc.collect()
    assert set(system.jms) == system.active_jobs
    terminal = [j for j in system.jobs if j.terminal]
    for job in terminal:
        jm = jm_refs.get(job.job_id)
        assert jm is None or jm() is None, f"JM of job {job.job_id} survived"
        plan, graph = held[job.job_id]
        assert plan() is None, f"plan of job {job.job_id} survived"
        assert graph() is None, f"graph of job {job.job_id} survived"
        with pytest.raises(RuntimeError, match=f"job {job.job_id} "):
            job.plan
    for job_id in system.active_jobs:
        assert system.jms[job_id].plan is held[job_id][0]()
    return len(terminal)


def test_service_unit_retires_every_terminal_job(jm_refs):
    driver = fig_service.build_unit(SCALES["tiny"], "poisson-x2.0", seed=0)
    held = _track_submissions(driver.system)
    report = driver.run()
    assert _assert_released(driver.system, jm_refs, held) > 0
    # the record still carries everything the SLO report reads
    assert report["counts"]["completed"] == len(driver.system.completed_jobs)
    for job in driver.system.completed_jobs:
        assert job.name and job.num_tasks > 0 and job.jct > 0


def test_retired_jm_is_freed_by_reference_counting(monkeypatch):
    """A JM holds no reference cycle through itself: with the cycle
    collector off, every JM the service unit retires is gone by the time
    the run returns."""
    retired: list[weakref.ref] = []
    retire = UrsaSystem._retire

    def tracked(self, jm):
        retired.append(weakref.ref(jm))
        retire(self, jm)

    monkeypatch.setattr(UrsaSystem, "_retire", tracked)
    enabled = gc.isenabled()
    gc.disable()
    try:
        driver = fig_service.build_unit(SCALES["tiny"], "poisson-x2.0", seed=0)
        driver.run()
        alive = [ref for ref in retired if ref() is not None]
    finally:
        if enabled:
            gc.enable()
    assert retired and not alive, f"{len(alive)} of {len(retired)} retired JMs alive"


def test_faulted_run_retires_failed_jobs_and_serves_late_events(
    jm_refs, monkeypatch
):
    late: list[int] = []
    requeue = JobManager.fault_requeue_monotask

    def spy(self, mt):
        if self.job.state is not JobState.ADMITTED:
            late.append(self.job.job_id)
        requeue(self, mt)

    monkeypatch.setattr(JobManager, "fault_requeue_monotask", spy)
    cluster = Cluster(
        ClusterSpec(num_machines=4, machine=ClusterSpec.paper_cluster().machine)
    )
    system = UrsaSystem(
        cluster, UrsaConfig(faults=LATE_PLAN, retry=RetryPolicy(max_attempts=1))
    )
    held = _track_submissions(system)
    wl = tpch_workload(n_jobs=6, scale=0.02, arrival_interval=0.6,
                       max_parallelism=128, partition_mb=12.0)
    submit_workload(system, wl, seed=0)
    system.run(max_events=50_000_000)
    assert system.all_terminal
    assert system.failed_jobs and system.completed_jobs
    # the re-queue fired after its job failed and was retired
    assert late and set(late) <= {j.job_id for j in system.failed_jobs}
    assert _assert_released(system, jm_refs, held) == len(system.jobs)


def _one_stage(name: str, size: float) -> OpGraph:
    g = OpGraph(name)
    src = g.create_data(2)
    g.set_input(src, [size] * 2)
    g.create_op(ResourceType.CPU, "map").read(src).create(g.create_data(2))
    return g


def test_doomed_job_is_retired_without_a_jm(jm_refs):
    """A waiting job that a crash leaves too big to ever admit fails before
    it has a JM; it drops its plan and graph all the same."""
    cluster = Cluster(ClusterSpec.small(num_machines=2, cores=2, core_rate_mbps=10.0))
    system = UrsaSystem(
        cluster, UrsaConfig(faults=FaultPlan((WorkerCrash(at=1.0, worker=1),)))
    )
    held = _track_submissions(system)
    system.submit(_one_stage("runs", 200.0), 64.0)
    doomed = system.submit(_one_stage("big", 1.0), cluster.total_memory_mb, at=0.5)
    system.run(max_events=200_000)
    assert doomed.failed and doomed.job_id not in jm_refs
    assert _assert_released(system, jm_refs, held) == 2


def test_retired_plan_raises_a_named_error():
    system = UrsaSystem(Cluster(ClusterSpec.small(num_machines=2, cores=2)))
    job = system.submit(_one_stage("named", 5.0), 64.0)
    plan = job.plan
    system.run(max_events=100_000)
    assert job.done
    assert job.name == "named" and job.num_tasks == len(plan.tasks) == 2
    for attr in ("plan", "graph"):
        with pytest.raises(RuntimeError, match=r"job 0 \('named'\) is retired"):
            getattr(job, attr)


def test_session_keeps_its_jobs_and_collects_twice():
    ctx = UrsaContext(ClusterSpec.small(num_machines=2, cores=4))
    doubled = ctx.parallelize(range(20), partitions=4).map(lambda x: 2 * x)
    first = sorted(doubled.collect())
    assert first == [2 * x for x in range(20)]
    assert sorted(doubled.collect()) == first
    jobs = ctx.system.completed_jobs
    assert len(jobs) == 2
    for job in jobs:
        assert ctx.system.jms[job.job_id].job is job
        assert len(job.plan.tasks) == job.num_tasks


def _retired_objects_alive(traced: bool) -> tuple[int, int]:
    """Run the tiny ``poisson-x2.0`` unit with the cycle collector off;
    return how many monotasks and tasks not planned for an unfinished job
    are alive once the run returns (with the trace, before it stops)."""
    gc.collect()
    before = [o for o in gc.get_objects() if type(o) in (Monotask, Task)]
    enabled = gc.isenabled()
    gc.disable()
    if traced:
        recorder.enable()
    try:
        driver = fig_service.build_unit(SCALES["tiny"], "poisson-x2.0", seed=0)
        driver.run()
        known = set(map(id, before))
        for job in driver.system.jobs:
            if not job.terminal:
                known.update(map(id, job.plan.monotasks))
                known.update(map(id, job.plan.tasks))
        alive = [type(o) for o in gc.get_objects()
                 if type(o) in (Monotask, Task) and id(o) not in known]
    finally:
        if traced:
            recorder.disable()
        if enabled:
            gc.enable()
    assert any(job.terminal for job in driver.system.jobs)
    return alive.count(Monotask), alive.count(Task)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_retired_plan_is_freed_by_reference_counting(traced):
    """A retired plan leaves no cycle behind: with the collector off, not
    one monotask or task of a retired job outlives the run, also while
    the trace records every task's dependency ids."""
    assert _retired_objects_alive(traced) == (0, 0)


def _shuffle(name: str, size: float) -> OpGraph:
    """Eight map tasks, one of them a straggler, shuffled to four."""
    g = OpGraph(name)
    src = g.create_data(8)
    g.set_input(src, [size] * 7 + [6 * size])
    ser = g.create_op(ResourceType.CPU, "ser").read(src).create(g.create_data(8))
    sh = g.create_op(ResourceType.NETWORK, "sh").read(ser.output).create(g.create_data(4))
    agg = g.create_op(ResourceType.CPU, "agg").read(sh.output).create(g.create_data(4))
    ser.to(sh, DepType.SYNC)
    sh.to(agg, DepType.ASYNC)
    return g


#: the two jobs' straggler ratios, read off the plans held through the run
RATIOS = [0.3598934715324264, 0.3916653611154629]


def test_held_plan_stays_intact_after_its_job_retires():
    """The plan a caller took before ``run()`` keeps every link: the
    retired job let go of it, but the caller did not."""
    system = UrsaSystem(Cluster(ClusterSpec.small(num_machines=2, cores=2,
                                                  core_rate_mbps=10.0)))
    jobs = [system.submit(_shuffle(f"s{i}", 20.0 + 10 * i), 64.0) for i in range(2)]
    plans = [job.plan for job in jobs]
    system.run(max_events=200_000)
    assert all(job.done for job in jobs)
    for job, plan in zip(jobs, plans):
        with pytest.raises(RuntimeError, match="is retired"):
            job.plan
        assert plan.barriers
        for mt in plan.monotasks:
            assert mt in mt.task.monotasks
            for parent in mt.parents:
                assert mt in parent.children
        for task in plan.tasks:
            assert task in task.stage.tasks
        for barrier in plan.barriers:
            assert barrier.producers and barrier.consumers
            assert all(barrier in t.child_barriers for t in barrier.producers)
            assert all(barrier in t.parent_barriers for t in barrier.consumers)
    assert [job_straggler_ratio(job, plan) for job, plan in zip(jobs, plans)] == RATIOS
