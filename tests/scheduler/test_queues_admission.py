"""Tests for monotask queues and admission control."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.dataflow import DepType, OpGraph, ResourceType
from repro.execution import Job, JobManager
from repro.scheduler import AdmissionController, EarliestJobFirst, MonotaskQueue
from repro.scheduler.admission import STARVATION_TIMEOUT
from repro.scheduler.queues import QueueEntry


class _NullBackend:
    def on_tasks_ready(self, jm, tasks):
        pass

    def enqueue_monotask(self, jm, mt):
        pass

    def on_job_complete(self, jm):
        pass


def make_jm(cluster, job_id=0, submit=0.0, sizes=(10.0, 20.0, 30.0)):
    g = OpGraph(f"j{job_id}")
    src = g.create_data(len(sizes))
    g.set_input(src, list(sizes))
    msg = g.create_data(len(sizes))
    ser = g.create_op(ResourceType.CPU, "ser").read(src).create(msg)
    sh = g.create_op(ResourceType.NETWORK, "sh").read(msg).create(g.create_data(len(sizes)))
    ser.to(sh, DepType.SYNC)
    job = Job(job_id, g, submit, requested_memory_mb=1024.0)
    jm = JobManager(cluster.sim, cluster, job, _NullBackend())
    jm.start()
    return jm


@pytest.fixture
def cluster():
    return Cluster(ClusterSpec.small(num_machines=2, cores=4, core_rate_mbps=10.0))


def _cpu_monotasks(jm):
    return [m for m in jm.job.plan.monotasks if m.rtype is ResourceType.CPU]


def _net_monotasks(jm):
    return [m for m in jm.job.plan.monotasks if m.rtype is ResourceType.NETWORK]


def test_cpu_queue_orders_larger_first(cluster):
    jm = make_jm(cluster)
    q = MonotaskQueue(ResourceType.CPU)
    policy = EarliestJobFirst()
    for mt in _cpu_monotasks(jm):
        q.push(policy, 0.0, jm, mt)
    sizes = [q.pop().mt.input_size_mb for _ in range(len(q))]
    assert sizes == sorted(sizes, reverse=True)
    assert sizes == [30.0, 20.0, 10.0]


def test_network_queue_orders_smaller_first(cluster):
    jm = make_jm(cluster)
    # force-resolve network monotasks by finishing stage 1 sizes manually:
    # network input sizes resolve only when their task is ready, so emulate
    # with the CPU sizes instead via a fresh queue of CPU mts keyed as net.
    q = MonotaskQueue(ResourceType.NETWORK)
    policy = EarliestJobFirst()
    for mt in _cpu_monotasks(jm):
        q.push(policy, 0.0, jm, mt)
    sizes = [q.pop().mt.input_size_mb for _ in range(len(q))]
    assert sizes == sorted(sizes)


def test_queue_orders_across_jobs_by_policy(cluster):
    early = make_jm(cluster, job_id=0, submit=0.0, sizes=(5.0,))
    late = make_jm(cluster, job_id=1, submit=10.0, sizes=(500.0,))
    q = MonotaskQueue(ResourceType.CPU)
    policy = EarliestJobFirst()
    q.push(policy, 10.0, late, _cpu_monotasks(late)[0])
    q.push(policy, 10.0, early, _cpu_monotasks(early)[0])
    # the early job's (small!) monotask still pops first
    assert q.pop().jm is early
    assert q.pop().jm is late


def test_queue_resort_updates_keys(cluster):
    jm_a = make_jm(cluster, job_id=0, submit=0.0, sizes=(5.0,))
    jm_b = make_jm(cluster, job_id=1, submit=1.0, sizes=(5.0,))
    q = MonotaskQueue(ResourceType.CPU)
    policy = EarliestJobFirst()
    q.push(policy, 1.0, jm_a, _cpu_monotasks(jm_a)[0])
    q.push(policy, 1.0, jm_b, _cpu_monotasks(jm_b)[0])

    # swap priorities by rewriting submit times, then resort
    jm_a.job.submit_time, jm_b.job.submit_time = 5.0, 0.0
    q.resort(policy, 6.0)
    assert q.pop().jm is jm_b


def test_queue_pop_empty_returns_none():
    q = MonotaskQueue(ResourceType.CPU)
    assert q.pop() is None
    assert q.peek() is None
    assert q.queued_work_mb() == 0.0


def test_queue_iter_yields_policy_order_not_heap_order(cluster):
    """__iter__ must yield entries in the order pop() would drain them.

    A binary heap's backing array only guarantees its first element is the
    minimum, so iterating the raw array is *not* policy order — the fixture
    below is chosen so the two orders genuinely differ."""
    jm = make_jm(cluster, sizes=(10.0, 40.0, 20.0, 50.0, 30.0, 60.0, 5.0))
    q = MonotaskQueue(ResourceType.CPU)
    policy = EarliestJobFirst()
    for mt in _cpu_monotasks(jm):
        q.push(policy, 0.0, jm, mt)

    iterated = [e.mt.input_size_mb for e in q]
    assert len(q) == 7  # iteration must not consume the queue
    raw_heap = [e.mt.input_size_mb for e in q._heap]
    popped = [q.pop().mt.input_size_mb for _ in range(len(q))]

    assert iterated == popped == [60.0, 50.0, 40.0, 30.0, 20.0, 10.0, 5.0]
    # the guard that this fixture actually exercises the bug: the raw heap
    # array is out of policy order for this push sequence
    assert raw_heap != popped


def test_queue_entry_lt_tie_breaks_by_seq(cluster):
    jm = make_jm(cluster, sizes=(5.0, 5.0, 5.0))
    mts = _cpu_monotasks(jm)
    a = QueueEntry((0.0, -5.0), 0, jm, mts[0])
    b = QueueEntry((0.0, -5.0), 1, jm, mts[1])
    assert a < b and not (b < a)


# ----------------------------------------------------------------------
# admission
# ----------------------------------------------------------------------
def _job(job_id, submit, mem):
    g = OpGraph(f"a{job_id}")
    src = g.create_data(1)
    g.set_input(src, [1.0])
    g.create_op(ResourceType.CPU).read(src).create(g.create_data(1))
    return Job(job_id, g, submit, requested_memory_mb=mem)


def test_admission_within_capacity():
    ac = AdmissionController(1000.0, EarliestJobFirst())
    ac.submit(_job(0, 0.0, 400.0), 0.0)
    ac.submit(_job(1, 1.0, 400.0), 1.0)
    admitted = ac.admit_ready(1.0)
    assert [j.job_id for j in admitted] == [0, 1]
    assert ac.reserved_mb == 800.0
    assert ac.queue_length == 0


def test_admission_queues_when_memory_insufficient():
    ac = AdmissionController(1000.0, EarliestJobFirst())
    ac.submit(_job(0, 0.0, 800.0), 0.0)
    ac.submit(_job(1, 1.0, 800.0), 1.0)
    admitted = ac.admit_ready(1.0)
    assert [j.job_id for j in admitted] == [0]
    assert ac.queue_length == 1


def test_admission_releases_memory_on_completion():
    ac = AdmissionController(1000.0, EarliestJobFirst())
    j0 = _job(0, 0.0, 800.0)
    ac.submit(j0, 0.0)
    ac.submit(_job(1, 1.0, 800.0), 1.0)
    ac.admit_ready(1.0)
    ac.release(j0)
    admitted = ac.admit_ready(2.0)
    assert [j.job_id for j in admitted] == [1]


def test_admission_small_job_bypasses_blocked_head():
    ac = AdmissionController(1000.0, EarliestJobFirst())
    ac.submit(_job(0, 0.0, 900.0), 0.0)
    ac.admit_ready(0.0)
    ac.submit(_job(1, 1.0, 950.0), 1.0)  # blocked head
    ac.submit(_job(2, 2.0, 50.0), 2.0)   # fits alongside job 0
    admitted = ac.admit_ready(2.0)
    assert [j.job_id for j in admitted] == [2]


def test_admission_starvation_guard_blocks_bypass():
    assert STARVATION_TIMEOUT == 120.0
    ac = AdmissionController(1000.0, EarliestJobFirst())
    ac.submit(_job(0, 0.0, 900.0), 0.0)
    ac.admit_ready(0.0)
    ac.submit(_job(1, 1.0, 950.0), 1.0)
    ac.submit(_job(2, 2.0, 50.0), 2.0)
    # long after the timeout, the small job may no longer jump the queue
    admitted = ac.admit_ready(1000.0)
    assert admitted == []


def test_admission_rejects_job_larger_than_cluster():
    ac = AdmissionController(1000.0, EarliestJobFirst())
    with pytest.raises(ValueError):
        ac.submit(_job(0, 0.0, 2000.0), 0.0)


def test_admission_invalid_capacity():
    with pytest.raises(ValueError):
        AdmissionController(0.0, EarliestJobFirst())


def test_queued_work_mb_incremental_tracks_contents(cluster):
    """queued_work_mb is maintained on push/pop and agrees with a scan."""
    jm = make_jm(cluster, sizes=(10.0, 20.0, 30.0))
    q = MonotaskQueue(ResourceType.CPU)
    policy = EarliestJobFirst()
    mts = _cpu_monotasks(jm)
    total = 0.0
    for mt in mts:
        q.push(policy, 0.0, jm, mt)
        total += mt.input_size_mb
        assert q.queued_work_mb() == pytest.approx(total)
        assert q.queued_work_mb() == pytest.approx(
            sum(e.mt.input_size_mb for e in q)
        )
    while len(q):
        q.pop()
        assert q.queued_work_mb() == pytest.approx(
            sum(e.mt.input_size_mb for e in q)
        )
    # the total pins back to exactly 0.0 when the queue drains
    assert q.queued_work_mb() == 0.0


def test_repr_shows_policy_order_not_heap_order(cluster):
    """Satellite-5 regression: repr/str must list entries in the order pop()
    would drain them.  The sizes below leave the raw heap array out of policy
    order, so a repr built from ``self._heap`` directly would fail this."""
    jm = make_jm(cluster, sizes=(10.0, 40.0, 20.0, 50.0, 30.0, 60.0, 5.0))
    q = MonotaskQueue(ResourceType.CPU, owner=3)
    policy = EarliestJobFirst()
    for mt in _cpu_monotasks(jm):
        q.push(policy, 0.0, jm, mt)
    assert [e.mt.input_size_mb for e in q._heap] != [
        e.mt.input_size_mb for e in sorted(q._heap)
    ]

    text = repr(q)
    assert text == str(q)
    assert text.startswith("MonotaskQueue(cpu@w3, 7 queued: [")
    shown = [part.split("(")[0] for part in text.split("[")[1].rstrip("])").split(", ")]
    popped = [f"mt{q.pop().mt.mt_id}" for _ in range(len(q))]
    assert shown == popped


def test_repr_of_anonymous_empty_queue():
    q = MonotaskQueue(ResourceType.DISK)
    assert repr(q) == "MonotaskQueue(disk, 0 queued: [])"


def test_evict_returns_policy_order_and_keeps_survivors(cluster):
    jm = make_jm(cluster, sizes=(10.0, 40.0, 20.0, 50.0, 30.0, 60.0, 5.0))
    q = MonotaskQueue(ResourceType.CPU)
    policy = EarliestJobFirst()
    for mt in _cpu_monotasks(jm):
        q.push(policy, 0.0, jm, mt)

    evicted = q.evict(lambda e: e.mt.input_size_mb >= 30.0)
    assert [e.mt.input_size_mb for e in evicted] == [60.0, 50.0, 40.0, 30.0]
    assert q.queued_work_mb() == pytest.approx(35.0)
    assert [q.pop().mt.input_size_mb for _ in range(len(q))] == [20.0, 10.0, 5.0]
    # eviction on an empty / non-matching queue is a no-op
    assert q.evict(lambda e: True) == []


def test_dead_worker_drains_its_queued_monotasks(cluster):
    """Satellite-5 regression: crashing a worker must evict every queued
    monotask (so a later rebuilt placement cannot double-run them) and zero
    the load metrics that feed APT_r(w)."""
    from repro.dataflow.monotask import MonotaskState
    from repro.scheduler.worker import Worker

    jm = make_jm(cluster, sizes=(10.0, 20.0, 30.0))
    wk = Worker(cluster, 0, EarliestJobFirst())
    # saturate the grant slots so enqueue() queues instead of running
    wk.running = dict(wk.limits)
    for mt in _cpu_monotasks(jm):
        wk.enqueue(jm, mt)
        assert mt.state is MonotaskState.QUEUED
    assert wk.queued_monotasks == 3

    wk.fault_crash()
    assert not wk.alive
    assert wk.queued_monotasks == 0
    for q in wk.queues.values():
        assert q.queued_work_mb() == 0.0
    assert all(v == 0 for v in wk.running.values())
    assert all(v == 0.0 for v in wk.assigned_work.values())


def test_queued_work_mb_zero_after_refill_and_drain(cluster):
    jm = make_jm(cluster, sizes=(0.1, 0.2, 0.7))
    q = MonotaskQueue(ResourceType.CPU)
    policy = EarliestJobFirst()
    for _round in range(3):
        for mt in _cpu_monotasks(jm):
            q.push(policy, 0.0, jm, mt)
        while q.pop() is not None:
            pass
        assert q.queued_work_mb() == 0.0
