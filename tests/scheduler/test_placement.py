"""Tests for Algorithm 1 (UrsaPlacement) scoring and planning rules."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.dataflow import DepType, OpGraph, ResourceType
from repro.execution import Job, JobManager
from repro.scheduler import EarliestJobFirst, UrsaPlacement, Worker
from repro.scheduler.placement import ReadyStage, _VectorState


class _NullBackend:
    def on_tasks_ready(self, jm, tasks):
        pass

    def enqueue_monotask(self, jm, mt):
        pass

    def on_job_complete(self, jm):
        pass


def build_jm(cluster, n_tasks=4, size=10.0, submit=0.0, job_id=0):
    g = OpGraph(f"p{job_id}")
    src = g.create_data(n_tasks)
    sizes = list(size) if isinstance(size, (list, tuple)) else [size] * n_tasks
    g.set_input(src, sizes)
    msg = g.create_data(n_tasks)
    ser = g.create_op(ResourceType.CPU, "ser").read(src).create(msg)
    sh = g.create_op(ResourceType.NETWORK, "sh").read(msg).create(g.create_data(n_tasks))
    ser.to(sh, DepType.SYNC)
    job = Job(job_id, g, submit, requested_memory_mb=1024.0)
    jm = JobManager(cluster.sim, cluster, job, _NullBackend())
    jm.start()
    return jm


def ready_stages(jm):
    by_stage = {}
    for t in jm.ready_tasks:
        by_stage.setdefault(t.stage.stage_id, []).append(t)
    return [ReadyStage(jm, ts[0].stage, ts) for ts in by_stage.values()]


@pytest.fixture
def cluster():
    return Cluster(ClusterSpec.small(num_machines=4, cores=4, core_rate_mbps=10.0))


@pytest.fixture
def workers(cluster):
    return [Worker(cluster, i, EarliestJobFirst()) for i in range(cluster.num_machines)]


def test_idle_cluster_has_full_headroom(cluster, workers):
    state = _VectorState(workers)
    assert all(d[0] == pytest.approx(1.0) for d in (state.d0, state.d1, state.d2))
    assert state.mem_avail[0] / state.mem_cap[0] == pytest.approx(1.0)


def test_all_ready_tasks_placed_on_idle_cluster(cluster, workers):
    jm = build_jm(cluster, n_tasks=4)
    placement = UrsaPlacement()
    assignments = placement.place(ready_stages(jm), workers, 0.0, EarliestJobFirst())
    assert len(assignments) == 4
    assert {a.task.task_id for a in assignments} == {t.task_id for t in jm.job.plan.tasks[:4]}


def test_placement_balances_load_across_workers(cluster, workers):
    """Equal small tasks on an idle cluster spread over all machines."""
    jm = build_jm(cluster, n_tasks=8, size=4.0)
    placement = UrsaPlacement()
    assignments = placement.place(ready_stages(jm), workers, 0.0, EarliestJobFirst())
    per_worker = {}
    for a in assignments:
        per_worker[a.worker] = per_worker.get(a.worker, 0) + 1
    assert len(per_worker) == 4
    assert set(per_worker.values()) == {2}


def test_placement_round_limits_big_tasks_per_worker(cluster, workers):
    """Tasks whose Inc exceeds a round's headroom land one-per-worker: the
    D_r=0 blocking rule keeps a round from overloading a machine."""
    jm = build_jm(cluster, n_tasks=8, size=100.0)
    placement = UrsaPlacement()
    assignments = placement.place(ready_stages(jm), workers, 0.0, EarliestJobFirst())
    assert len(assignments) == 4  # one per worker; the rest wait a round
    assert {a.worker for a in assignments} == {0, 1, 2, 3}


def test_memory_infeasible_worker_is_skipped(cluster, workers):
    jm = build_jm(cluster, n_tasks=2, size=10.0)
    # exhaust memory on machines 0-2
    for i in range(3):
        cluster.machine(i).reserve_memory(cluster.machine(i).memory.available)
    placement = UrsaPlacement()
    assignments = placement.place(ready_stages(jm), workers, 0.0, EarliestJobFirst())
    assert assignments
    assert all(a.worker == 3 for a in assignments)


def test_no_feasible_worker_returns_empty(cluster, workers):
    jm = build_jm(cluster, n_tasks=2, size=10.0)
    for i in range(4):
        cluster.machine(i).reserve_memory(cluster.machine(i).memory.available)
    placement = UrsaPlacement()
    assert placement.place(ready_stages(jm), workers, 0.0, EarliestJobFirst()) == []


def test_blocking_rule_zero_headroom(cluster, workers):
    """A worker with zero CPU headroom must not receive CPU-using tasks."""
    jm = build_jm(cluster, n_tasks=1, size=10.0)
    placement = UrsaPlacement()
    state = _VectorState(workers)
    state.d0[0] = 0.0  # CPU headroom
    task = next(iter(jm.ready_tasks))
    assert task.est_cpu_mb > 0
    usage, mem = placement._profile(task)
    assert state.score_one(0, usage, mem) == float("-inf")
    assert state.score_one(1, usage, mem) > 0.0


def test_inc_capped_by_headroom(cluster, workers):
    """Huge tasks cannot overflow the score beyond D_r^2 per resource."""
    jm = build_jm(cluster, n_tasks=1, size=1e6)
    placement = UrsaPlacement()
    state = _VectorState(workers)
    task = next(iter(jm.ready_tasks))
    f = state.score_one(0, *placement._profile(task))
    assert f != float("-inf")
    assert f <= 4.0 + 1e-9  # at most sum of D_r * D_r <= 4


def test_locality_constraint_restricts_candidates(cluster, workers):
    jm = build_jm(cluster, n_tasks=2, size=10.0)
    for t in jm.ready_tasks:
        t.locality = 2
    placement = UrsaPlacement()
    assignments = placement.place(ready_stages(jm), workers, 0.0, EarliestJobFirst())
    assert assignments and all(a.worker == 2 for a in assignments)


def test_fully_placeable_stage_beats_partial(cluster, workers):
    """Stage bonus: a stage that fits entirely is placed before a bigger
    stage that can only partially fit."""
    # tiny job (stage fits) vs wide job (stage bigger than free memory slots)
    small = build_jm(cluster, n_tasks=2, size=10.0, job_id=0, submit=5.0)
    wide = build_jm(cluster, n_tasks=64, size=10.0, job_id=1, submit=0.0)
    for t in wide.ready_tasks:
        t.est_mem_mb = cluster.machine(0).memory.capacity / 4  # 16 fit max
    placement = UrsaPlacement()
    stages = ready_stages(wide) + ready_stages(small)
    assignments = placement.place(stages, workers, 10.0, EarliestJobFirst())
    order = [a.jm.job.job_id for a in assignments]
    # the fully-placeable small stage was scheduled first despite EJF bonus
    assert order[0] == 0 and order[1] == 0


def test_ejf_bonus_orders_equal_stages(cluster, workers):
    early = build_jm(cluster, n_tasks=2, size=10.0, job_id=0, submit=0.0)
    late = build_jm(cluster, n_tasks=2, size=10.0, job_id=1, submit=50.0)
    placement = UrsaPlacement()
    stages = ready_stages(late) + ready_stages(early)
    assignments = placement.place(stages, workers, 100.0, EarliestJobFirst(weight=0.1))
    order = [a.jm.job.job_id for a in assignments]
    assert order[:2] == [0, 0]


def test_non_stage_aware_places_tasks_individually(cluster, workers):
    jm = build_jm(cluster, n_tasks=4)
    placement = UrsaPlacement(stage_aware=False)
    assignments = placement.place(ready_stages(jm), workers, 0.0, EarliestJobFirst())
    assert len(assignments) == 4


def test_ignore_network_flag_zeroes_network_usage(cluster, workers):
    jm = build_jm(cluster, n_tasks=1)
    task = next(iter(jm.ready_tasks))
    task.est_net_mb = 50.0
    assert UrsaPlacement(ignore_network=True)._profile(task)[0][1] == 0.0
    task.sched_profile = None  # the profile is cached per task
    assert UrsaPlacement()._profile(task)[0][1] == 50.0


def test_invalid_ept_rejected():
    """EPT is the module constant SCHEDULING_INTERVAL × EPT_FACTOR, so no
    value for it, valid or not, is accepted."""
    with pytest.raises(TypeError, match="ept"):
        UrsaPlacement(ept=0.0)


# ----------------------------------------------------------------------
# Regression: the lazy-heap fast path must reproduce the brute-force
# rescore-all-stages reference decision-for-decision.
# ----------------------------------------------------------------------
def _randomized_setup(seed, n_jobs=4, machines=4, repeated_sizes=0):
    """Build jobs with random continuous task sizes on randomly pre-loaded
    workers.  Continuous sizes keep scores tie-free, so any divergence in
    heap bookkeeping shows up as a different assignment sequence.

    ``repeated_sizes > 0`` gives that many sizes per job a run of 2–3
    consecutive tasks (as real stages list equal partitions) between
    one-off sizes, and repeats the first run's size once more at the end,
    apart from its run, so a stage mixes profiles neighbouring tasks share
    (the engine's cached rows and their refreshes) with profiles it scans
    once per task."""
    import random

    rng = random.Random(seed)
    cluster = Cluster(ClusterSpec.small(num_machines=machines, cores=4, core_rate_mbps=10.0))
    workers = [Worker(cluster, i, EarliestJobFirst()) for i in range(machines)]
    for w in workers:
        for r in (ResourceType.CPU, ResourceType.NETWORK, ResourceType.DISK):
            w.assigned_work[r] = rng.uniform(0.0, 8.0)
            w.rates[r].record(rng.uniform(5.0, 40.0), rng.uniform(0.5, 3.0))
        w.running[ResourceType.CPU] = rng.randrange(0, w.machine.spec.cores + 1)
        w.machine.reserve_memory(rng.uniform(0.0, 0.5) * w.machine.memory.capacity)
    stages = []
    for j in range(n_jobs):
        n_tasks = rng.randrange(2, 9)
        sizes = [rng.uniform(1.0, 60.0) for _ in range(n_tasks)]
        if repeated_sizes:
            runs = [[s] * rng.randrange(2, 4) for s in sizes[:repeated_sizes]]
            runs += [[s] for s in sizes[repeated_sizes:]]
            rng.shuffle(runs)
            sizes = [s for run in runs for s in run] + [sizes[0]]
            n_tasks = len(sizes)
        jm = build_jm(cluster, n_tasks=n_tasks, size=sizes, job_id=j,
                      submit=rng.uniform(0.0, 20.0))
        stages.extend(ready_stages(jm))
    return workers, stages


@pytest.mark.parametrize("stage_aware", [True, False])
@pytest.mark.parametrize("seed", range(8))
def test_lazy_heap_matches_bruteforce_reference(seed, stage_aware):
    from .reference import ReferenceUrsaPlacement

    def run(cls, repeated_sizes):
        # rebuild the full state from the seed so each implementation sees
        # an identical, unshared cluster/worker/ready-set snapshot
        workers, stages = _randomized_setup(seed, repeated_sizes=repeated_sizes)
        placement = cls(stage_aware=stage_aware)
        out = placement.place(stages, workers, 25.0, EarliestJobFirst(weight=0.1))
        return [(a.jm.job.job_id, a.task.task_id, a.worker) for a in out]

    for repeated_sizes in (0, 2):
        assert run(UrsaPlacement, repeated_sizes) == run(
            ReferenceUrsaPlacement, repeated_sizes)

