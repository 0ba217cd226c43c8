"""End-to-end fault injection & recovery behaviour on a real workload."""

from dataclasses import replace

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.dataflow import ResourceType
from repro.experiments.common import Scale
from repro.faults import (
    FaultPlan,
    GrantTimeout,
    ResourceSlowdown,
    RetryPolicy,
    WorkerBlackout,
    WorkerCrash,
)
from repro.metrics import compute_metrics
from repro.obs import events as ev
from repro.obs import recorder
from repro.scheduler import UrsaConfig, UrsaSystem
from repro.workloads import submit_workload, tpch_workload

SCALE = Scale(
    "faults-test", workload_scale=0.02, n_jobs=6, arrival_interval=0.6,
    max_parallelism=128, partition_mb=12.0,
    cluster=ClusterSpec(num_machines=4, machine=ClusterSpec.paper_cluster().machine),
)


def run_system(plan, policy="ejf", retry=None, record=False, plans=None):
    """Run the faulted TPC-H workload; if ``plans`` is a list, the jobs'
    plans are appended to it before the run (finished jobs are retired)."""
    rec = recorder.enable() if record else None
    try:
        cluster = Cluster(SCALE.cluster)
        system = UrsaSystem(
            cluster, UrsaConfig(policy=policy, faults=plan, retry=retry)
        )
        wl = tpch_workload(
            n_jobs=SCALE.n_jobs, scale=SCALE.workload_scale,
            arrival_interval=SCALE.arrival_interval,
            max_parallelism=SCALE.max_parallelism,
            partition_mb=SCALE.partition_mb,
        )
        jobs = submit_workload(system, wl, seed=0)
        if plans is not None:
            plans.extend(job.plan for job in jobs)
        system.run(max_events=SCALE.max_events)
    finally:
        if record:
            recorder.disable()
    return system, rec


def test_failure_free_baseline_has_no_controller():
    system, _ = run_system(None)
    assert system.fault_controller is None
    assert system.all_done


def test_crash_recovers_via_lineage_and_all_jobs_complete():
    plans = []
    system, _ = run_system(FaultPlan((WorkerCrash(at=2.0, worker=1),)), plans=plans)
    assert system.all_done and not system.failed_jobs
    assert not system.workers[1].alive
    stats = system.fault_controller.stats
    assert stats.worker_crashes == 1
    assert stats.tasks_restarted > 0
    assert stats.monotasks_lost > 0
    assert stats.wasted_work_mb > 0.0
    assert stats.recovery_times and all(t > 0.0 for t in stats.recovery_times)
    # the dead worker took no placements after the crash
    for plan in plans:
        for task in plan.tasks:
            assert task.finished_at is None or task.worker is not None
    # nothing may remain placed or queued on the dead machine
    wk = system.workers[1]
    assert wk.queued_monotasks == 0
    assert all(v == 0 for v in wk.running.values())
    # recovery costs time but never correctness
    baseline, _ = run_system(None)
    assert system.makespan() >= baseline.makespan()


def test_crash_releases_dead_workers_admission_share():
    system, _ = run_system(FaultPlan((WorkerCrash(at=2.0, worker=0),)))
    per_machine = SCALE.cluster.machine.memory_mb
    expected = SCALE.cluster.num_machines * per_machine - per_machine
    assert system.admission.total_memory_mb == pytest.approx(expected)


def test_blackout_rejoins_and_restores_admission_pool():
    system, _ = run_system(
        FaultPlan((WorkerBlackout(at=2.0, worker=2, duration=3.0),))
    )
    assert system.all_done and not system.failed_jobs
    assert system.workers[2].alive  # rejoined
    assert system.admission.total_memory_mb == pytest.approx(
        SCALE.cluster.num_machines * SCALE.cluster.machine.memory_mb
    )
    stats = system.fault_controller.stats
    assert stats.blackouts == 1 and stats.worker_crashes == 0


def test_retry_budget_exhaustion_fails_jobs_gracefully():
    system, _ = run_system(
        FaultPlan((WorkerCrash(at=2.5, worker=0),)),
        retry=RetryPolicy(max_attempts=0),
    )
    assert system.all_terminal and not system.all_done
    assert system.failed_jobs
    for job in system.failed_jobs:
        assert job.failed and job.finish_time is not None
    # partial results are retained and admission reservations returned, so
    # untouched jobs still ran to completion
    assert system.completed_jobs
    assert system.admission.reserved_mb == pytest.approx(0.0)
    # FAILED jobs aggregate into metrics instead of wedging them
    m = compute_metrics(system)
    assert m.makespan > 0.0


def test_grant_timeout_requeues_victim_and_completes():
    system, rec = run_system(
        FaultPlan((GrantTimeout(at=2.0, worker=0, delay=0.25),)), record=True
    )
    assert system.all_done and not system.failed_jobs
    stats = system.fault_controller.stats
    assert stats.grant_timeouts == 1
    assert stats.retries_charged == 1
    lost = [e for e in rec.events if e["kind"] == ev.MT_LOST]
    assert len(lost) == 1 and lost[0]["reason"] == "timeout"
    # the victim re-ran on the same worker: one extra mt_start for its id
    victim = (lost[0]["job"], lost[0]["mt"])
    starts = [e for e in rec.events
              if e["kind"] == ev.MT_START and (e["job"], e["mt"]) == victim]
    assert len(starts) == 2
    assert {e["worker"] for e in starts} == {lost[0]["worker"]}


def test_slowdown_applies_and_restores_unit_rate():
    plan = FaultPlan((
        ResourceSlowdown(at=1.0, worker=0, resource="cpu", factor=0.25, duration=4.0),
        ResourceSlowdown(at=1.0, worker=1, resource="network", factor=0.5, duration=4.0),
        ResourceSlowdown(at=1.0, worker=2, resource="disk", factor=0.5, duration=4.0),
    ))
    system, _ = run_system(plan)
    assert system.all_done
    assert system.fault_controller.stats.slowdowns == 3
    cluster = system.cluster
    spec = SCALE.cluster.machine
    assert cluster.machine(0).cpu.unit_rate == pytest.approx(spec.core_rate_mbps)
    assert cluster.machine(2).disk.unit_rate == pytest.approx(spec.disk_mbps)
    assert cluster.network._rx[1].unit_rate == pytest.approx(
        cluster.network.downlink_mbps
    )


@pytest.mark.parametrize("fabric, resource", [
    ("receiver", "network"), ("maxmin", "network"), ("maxmin", "cpu"), ("maxmin", "disk"),
])
def test_network_slowdown_needs_the_receiver_fabric(fabric, resource):
    """Only the receiver fabric has a per-machine downlink to slow: a
    network slowdown on the max-min fabric is refused by name instead of
    being dropped, and CPU/disk slowdowns work on either fabric."""
    cluster = Cluster(replace(ClusterSpec.small(num_machines=2), fabric=fabric))
    plan = FaultPlan((
        ResourceSlowdown(at=1.0, worker=1, resource=resource, factor=0.5, duration=1.0),
    ))
    if fabric == "maxmin" and resource == "network":
        with pytest.raises(ValueError, match=r"ResourceSlowdown\(.*'network'.*'maxmin' fabric"):
            UrsaSystem(cluster, UrsaConfig(faults=plan))
        return
    system = UrsaSystem(cluster, UrsaConfig(faults=plan))
    system.run()
    assert system.fault_controller.stats.slowdowns == 1


def test_faulted_trace_covers_every_event_kind():
    plan = FaultPlan((
        WorkerCrash(at=2.0, worker=1),
        WorkerBlackout(at=3.0, worker=2, duration=2.0),
        GrantTimeout(at=1.5, worker=0),
    ))
    system, rec = run_system(plan, record=True)
    assert system.all_terminal
    kinds = {e["kind"] for e in rec.events}
    assert kinds == ev.ALL_KINDS
    for e in rec.events:
        if e["kind"] == ev.MT_LOST:
            assert e["reason"] in {"crash", "blackout", "lineage", "timeout",
                                   "job_failed"}
        if e["kind"] == ev.WORKER_DOWN:
            assert e["cause"] in {"crash", "blackout"}


def test_crashed_worker_rates_reseed_on_rejoin():
    system, _ = run_system(
        FaultPlan((WorkerBlackout(at=2.0, worker=1, duration=20.0),))
    )
    # the blackout outlives most of the run: after rejoin the monitors were
    # re-seeded from nominal rates, not stale pre-crash samples
    wk = system.workers[1]
    spec = SCALE.cluster.machine
    assert wk.alive
    nominal = spec.core_rate_mbps * spec.cores
    assert wk.processing_rate(ResourceType.CPU) > 0.0
    assert wk.processing_rate(ResourceType.CPU) <= nominal * 1.5
