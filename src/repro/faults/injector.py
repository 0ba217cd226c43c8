"""The fault controller: compiles a :class:`FaultPlan` into simulation
events and drives recovery when they fire.

One controller is attached per :class:`~repro.scheduler.ursa.UrsaSystem`
when ``UrsaConfig.faults`` is a non-empty plan.  It owns all cross-layer
recovery choreography so the scheduler/execution modules only expose small
mechanical hooks (``Worker.fault_crash``, ``JobManager.fault_rewind_task``,
``AdmissionController.resize``, ``JobManager.abort_monotask``, ...):

* **worker crash / blackout** — take the worker offline, shrink the
  admission pool (permanently failing waiting jobs that can never fit a
  permanently-shrunken cluster), invalidate its shard outputs in every
  job's metadata store, compute each job's lineage restart set, charge
  retry budgets, tear down and rewind the affected tasks, and schedule
  their re-ready with the retry backoff;
* **blackout rejoin** — bring the worker back with empty queues and
  re-seeded rate monitors, grow the admission pool, re-kick admission;
* **resource slowdown** — scale one fluid resource's unit rate for a
  bounded interval (straggler injection);
* **grant timeout** — abort one running monotask's grant and re-enqueue it
  after a delay, charged against its task's retry budget.

Everything here iterates in sorted job/task/monotask order, never in heap
or set order, so the injected event stream is identical between the
optimized scheduler and the tests' frozen reference tick, and across
serial/parallel experiment harness runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..dataflow.monotask import Monotask, MonotaskState, Task, TaskState
from ..execution.job import JobState
from ..obs import recorder as _obs
from .plan import (
    FaultPlan,
    GrantTimeout,
    ResourceSlowdown,
    RetryPolicy,
    WorkerBlackout,
    WorkerCrash,
)
from .recovery import restart_set

if TYPE_CHECKING:  # pragma: no cover
    from ..execution.jobmanager import JobManager
    from ..scheduler.ursa import UrsaSystem

__all__ = ["FaultController", "FaultStats"]


@dataclass
class FaultStats:
    """Plain picklable counters the fault experiments aggregate.

    ``wasted_work_mb`` counts the input MB of completed-and-lost plus
    started-and-aborted monotasks (re-execution repeats it);
    ``recovery_times`` holds, per fault that restarted tasks, the seconds
    until the last restarted task completed again.
    """

    worker_crashes: int = 0
    blackouts: int = 0
    slowdowns: int = 0
    grant_timeouts: int = 0
    monotasks_lost: int = 0
    tasks_restarted: int = 0
    retries_charged: int = 0
    jobs_failed: int = 0
    wasted_work_mb: float = 0.0
    recovery_times: list = field(default_factory=list)

    def as_dict(self) -> dict:
        times = self.recovery_times
        return {
            "worker_crashes": self.worker_crashes,
            "blackouts": self.blackouts,
            "slowdowns": self.slowdowns,
            "grant_timeouts": self.grant_timeouts,
            "monotasks_lost": self.monotasks_lost,
            "tasks_restarted": self.tasks_restarted,
            "retries_charged": self.retries_charged,
            "jobs_failed": self.jobs_failed,
            "wasted_work_mb": self.wasted_work_mb,
            "recovery_mean_s": sum(times) / len(times) if times else 0.0,
            "recovery_max_s": max(times) if times else 0.0,
        }


class FaultController:
    """Schedules a plan's events and orchestrates recovery when they fire."""

    def __init__(
        self,
        system: "UrsaSystem",
        plan: FaultPlan,
        retry: Optional[RetryPolicy] = None,
    ):
        plan.validate(system.cluster.num_machines)
        fabric = system.cluster.spec.fabric
        for ev in plan.events:
            # only the receiver fabric has a per-machine downlink to slow
            if (isinstance(ev, ResourceSlowdown) and ev.resource == "network"
                    and fabric != "receiver"):
                raise ValueError(
                    f"{ev!r} needs the 'receiver' fabric's per-machine "
                    f"downlinks; the {fabric!r} fabric has none to slow"
                )
        self.system = system
        self.sim = system.sim
        self.plan = plan
        self.retry = retry if retry is not None else RetryPolicy()
        self.stats = FaultStats()
        #: per-(job_id, task_id) charged-restart counters
        self._attempts: dict[tuple[int, int], int] = {}
        #: [fault_time, {(job_id, task_id), ...}] awaiting re-completion;
        #: drained by :meth:`task_completed` into ``stats.recovery_times``
        self._pending: list[list] = []
        #: workers currently offline (drives absolute admission resizes)
        self._down: set[int] = set()

        for ev in plan.events:
            if isinstance(ev, WorkerCrash):
                self.sim.at(ev.at, self._on_worker_down, ev.worker, True)
            elif isinstance(ev, WorkerBlackout):
                self.sim.at(ev.at, self._on_worker_down, ev.worker, False)
                self.sim.at(ev.at + ev.duration, self._on_rejoin, ev.worker)
            elif isinstance(ev, ResourceSlowdown):
                self.sim.at(ev.at, self._on_slowdown, ev)
                self.sim.at(ev.at + ev.duration, self._on_slowdown_end, ev)
            elif isinstance(ev, GrantTimeout):
                self.sim.at(ev.at, self._on_grant_timeout, ev)
            else:  # pragma: no cover - plan.validate typing guards this
                raise TypeError(f"unknown fault spec {ev!r}")

    # ------------------------------------------------------------------
    # worker loss (crash = permanent, blackout = transient)
    # ------------------------------------------------------------------
    def _on_worker_down(self, worker: int, permanent: bool) -> None:
        wk = self.system.workers[worker]
        if not wk.alive:
            return  # already offline (overlapping plan entries)
        now = self.sim.now
        kind = "crash" if permanent else "blackout"
        if permanent:
            self.stats.worker_crashes += 1
        else:
            self.stats.blackouts += 1
        rec = _obs.RECORDER
        if rec is not None:
            rec.worker_down(now, worker, kind)

        wk.fault_crash()
        self._down.add(worker)
        doomed = self.system.admission.resize(
            self._admittable_memory(), fail_oversized=permanent
        )
        for job in sorted(doomed, key=lambda j: j.job_id):
            # never admitted: no reservation to release, no JM to tear down
            job.state = JobState.FAILED
            job.finish_time = now
            job.retire()
            self.system.failed_jobs.append(job)
            self.stats.jobs_failed += 1
            if rec is not None:
                rec.job_doomed(now, job.job_id, job.jct or 0.0)
        if rec is not None and doomed:
            rec.admission_queue(now, self.system.admission.queue_length)

        freed: dict[int, None] = {}
        pending_keys: set[tuple[int, int]] = set()
        for job_id in sorted(self.system.active_jobs):
            jm = self.system.jms[job_id]
            dropped = jm.metadata.invalidate_machine(worker)
            tasks, charged = restart_set(jm, worker, dropped)
            if not tasks:
                continue
            # charge the retry budget up front: if any task is out of
            # attempts the whole job fails and nothing is rewound twice
            over_budget = False
            for task in tasks:
                if task not in charged:
                    continue
                key = (job_id, task.task_id)
                attempt = self._attempts.get(key, 0) + 1
                self._attempts[key] = attempt
                self.stats.retries_charged += 1
                if rec is not None:
                    rec.retry(now, job_id, task.task_id, attempt, kind)
                if attempt > self.retry.max_attempts:
                    over_budget = True
            if over_budget:
                self._fail_job(jm, freed)
                continue
            for task in tasks:
                self._teardown_task(
                    jm, task, freed,
                    reason=kind if task.worker == worker else "lineage",
                )
            jm.fault_recount_dependencies()
            self.stats.tasks_restarted += len(tasks)
            for task in tasks:
                key = (job_id, task.task_id)
                pending_keys.add(key)
                if task.state is TaskState.BLOCKED and task.remaining_parents == 0:
                    delay = (
                        self.retry.delay(self._attempts.get(key, 0))
                        if task in charged else 0.0
                    )
                    self.sim.at(now + delay, jm.fault_recover_ready, task)
        if pending_keys:
            self._pending.append([now, pending_keys])
        self._backfill(freed)
        self.system._ensure_tick()

    def _on_rejoin(self, worker: int) -> None:
        wk = self.system.workers[worker]
        if wk.alive:
            return
        wk.fault_rejoin()
        self._down.discard(worker)
        self.system.admission.resize(self._admittable_memory())
        rec = _obs.RECORDER
        if rec is not None:
            rec.worker_up(
                self.sim.now, worker, self.system.admission.queue_length
            )
        self.system._try_admit()
        self.system._ensure_tick()

    def _admittable_memory(self) -> float:
        cluster = self.system.cluster
        down_mb = sum(
            cluster.machine(i).memory.capacity for i in sorted(self._down)
        )
        return cluster.total_memory_mb - down_mb

    # ------------------------------------------------------------------
    # stragglers
    # ------------------------------------------------------------------
    def _slowdown_processor(self, ev: ResourceSlowdown):
        """(processor, nominal_rate) for a slowdown target; a network target
        is the worker's receiver-side downlink (``__init__`` refused any
        other fabric)."""
        machine = self.system.cluster.machine(ev.worker)
        if ev.resource == "cpu":
            return machine.cpu, machine.spec.core_rate_mbps
        if ev.resource == "disk":
            return machine.disk, machine.spec.disk_mbps
        network = self.system.cluster.network
        return network._rx[ev.worker], network.downlink_mbps

    def _on_slowdown(self, ev: ResourceSlowdown) -> None:
        proc, nominal = self._slowdown_processor(ev)
        proc.set_unit_rate(nominal * ev.factor)
        self.stats.slowdowns += 1

    def _on_slowdown_end(self, ev: ResourceSlowdown) -> None:
        proc, nominal = self._slowdown_processor(ev)
        proc.set_unit_rate(nominal)

    # ------------------------------------------------------------------
    # grant timeouts
    # ------------------------------------------------------------------
    def _on_grant_timeout(self, ev: GrantTimeout) -> None:
        wk = self.system.workers[ev.worker]
        if not wk.alive:
            return
        victim = self._timeout_victim(ev.worker, wk)
        if victim is None:
            return  # nothing running there; the timeout fizzles
        jm, mt = victim
        task = mt.task
        assert task is not None
        now = self.sim.now
        self.stats.grant_timeouts += 1
        rec = _obs.RECORDER
        waste = jm.abort_monotask(mt)
        self.stats.wasted_work_mb += waste
        if rec is not None:
            rec.wasted_work(now, waste)
        wk.release_running(mt.rtype)
        # the work stays assigned to this worker: only the grant was lost,
        # so the monotask keeps its resolved inputs and re-queues in place
        mt.state = MonotaskState.READY
        mt.started_at = None
        self.stats.monotasks_lost += 1
        if rec is not None:
            rec.mt_lost(
                now, ev.worker, mt.rtype, jm.job.job_id, task.task_id,
                mt.mt_id, "timeout", True,
            )
        key = (jm.job.job_id, task.task_id)
        attempt = self._attempts.get(key, 0) + 1
        self._attempts[key] = attempt
        self.stats.retries_charged += 1
        if rec is not None:
            rec.retry(now, jm.job.job_id, task.task_id, attempt, "timeout")
        if attempt > self.retry.max_attempts:
            freed: dict[int, None] = {}
            self._fail_job(jm, freed)
            self._backfill(freed)
        else:
            self.sim.at(now + ev.delay, jm.fault_requeue_monotask, mt)
        wk.backfill()
        self.system._ensure_tick()

    def _timeout_victim(
        self, worker: int, wk
    ) -> Optional[tuple["JobManager", Monotask]]:
        """First running non-bypass monotask on ``worker`` in sorted
        (job, plan-task, monotask) order — deterministic across schedulers."""
        for job_id in sorted(self.system.active_jobs):
            jm = self.system.jms[job_id]
            for task in jm.plan.tasks:
                if task.state is not TaskState.PLACED or task.worker != worker:
                    continue
                for mt in task.monotasks:
                    if mt.state is MonotaskState.RUNNING and not wk.is_bypass(mt):
                        return jm, mt
        return None

    # ------------------------------------------------------------------
    # teardown helpers
    # ------------------------------------------------------------------
    def _teardown_task(
        self, jm: "JobManager", task: Task, freed: dict[int, None], reason: str
    ) -> None:
        """Abort/evict a restarting task's monotasks and rewind it.  The
        worker's freed slots are backfilled by the caller after the whole
        restart set is processed, so mid-teardown grants cannot race."""
        rec = _obs.RECORDER
        now = self.sim.now
        if task.state is TaskState.PLACED and task.worker is not None:
            widx = task.worker
            wk = self.system.workers[widx]
            if wk.alive:
                # (a dead worker's queues were drained by fault_crash)
                for q in wk.queues.values():
                    q.evict(lambda e, t=task: e.mt.task is t)
            lost: list[Monotask] = []
            for mt in task.monotasks:
                if mt.state is MonotaskState.RUNNING:
                    jm.abort_monotask(mt)
                    if wk.alive and not wk.is_bypass(mt):
                        wk.release_running(mt.rtype)
                        freed[widx] = None
                    # every RUNNING monotask held a grant (bypass lane
                    # included) that will never reach the release seam
                    lost.append((mt, True))
                elif mt.state is MonotaskState.QUEUED:
                    lost.append((mt, False))
            if wk.alive:
                wk.remove_assigned_task(task)
            if rec is not None:
                for mt, held in lost:
                    rec.mt_lost(
                        now, widx, mt.rtype, jm.job.job_id,
                        task.task_id, mt.mt_id, reason, held,
                    )
            self.stats.monotasks_lost += len(lost)
        waste = jm.fault_rewind_task(task)
        self.stats.wasted_work_mb += waste
        if rec is not None:
            rec.wasted_work(now, waste)

    def _fail_job(self, jm: "JobManager", freed: dict[int, None]) -> None:
        """Retry budget exhausted: tear down the job's placed tasks (their
        memory and slots return to the cluster), stamp FAILED, release its
        admission reservation, and forget its pending recovery keys."""
        now = self.sim.now
        job_id = jm.job.job_id
        placed = sorted(
            (t for t in jm.plan.tasks if t.state is TaskState.PLACED),
            key=lambda t: t.task_id,
        )
        for task in placed:
            self._teardown_task(jm, task, freed, reason="job_failed")
        jm.fault_mark_failed(now)
        self.stats.jobs_failed += 1
        self.system.on_job_failed(jm)
        kept: list[list] = []
        for t0, keys in self._pending:
            keys = {k for k in keys if k[0] != job_id}
            if keys:
                kept.append([t0, keys])
            # a window emptied by a job failure records no recovery time:
            # the work was abandoned, not recovered
        self._pending = kept

    def _backfill(self, freed: dict[int, None]) -> None:
        for widx in sorted(freed):
            wk = self.system.workers[widx]
            if wk.alive:
                wk.backfill()

    # ------------------------------------------------------------------
    # recovery-time accounting (UrsaSystem.on_task_complete hook)
    # ------------------------------------------------------------------
    def task_completed(self, jm: "JobManager", task: Task) -> None:
        if not self._pending:
            return
        key = (jm.job.job_id, task.task_id)
        now = self.sim.now
        rec = _obs.RECORDER
        kept: list[list] = []
        for t0, keys in self._pending:
            keys.discard(key)
            if keys:
                kept.append([t0, keys])
            else:
                self.stats.recovery_times.append(now - t0)
                if rec is not None:
                    rec.fault_recovery(now, now - t0)
        self._pending = kept
