"""UrsaSystem — the integrated scheduling + execution framework (Figure 2).

Wires together:

* the **centralized scheduler**: memory-gated admission, batched Algorithm-1
  task placement every :data:`SCHEDULING_INTERVAL`, job-ordering policy
  (EJF / SRJF);
* the **workers**: distributed per-resource monotask queues with ordering
  and concurrency control, processing-rate monitoring;
* the **execution layer**: a JM per job (started after
  :data:`JM_CREATION_DELAY`) and JPs executing monotasks on the simulated
  machines.

Usage::

    cluster = Cluster(ClusterSpec.paper_cluster())
    ursa = UrsaSystem(cluster, UrsaConfig(policy="srjf"))
    for graph, mem, t in my_jobs:
        ursa.submit(graph, requested_memory_mb=mem, at=t)
    ursa.run()
    print(ursa.makespan(), ursa.mean_jct())
"""

from __future__ import annotations

from typing import Optional

from ..cluster.cluster import Cluster
from ..dataflow.graph import OpGraph
from ..dataflow.monotask import Monotask, Task
from ..dataflow.planner import JobShape
from ..execution.job import Job, JobState
from ..execution.jobmanager import JobManager
from ..faults.plan import FaultPlan, RetryPolicy
from ..obs import recorder as _obs
from ..rules import FLAG, NONNEG, one_of, optional, ruled, ruled_dataclass
from .admission import AdmissionController
from .ordering import EarliestJobFirst, SchedulingPolicy, SmallestRemainingJobFirst
from .placement import (
    EPT_FACTOR,
    SCHEDULING_INTERVAL,
    Assignment,
    PlacementPolicy,
    ReadyStage,
    UrsaPlacement,
)
from .worker import Worker

__all__ = ["UrsaConfig", "UrsaSystem"]

# SCHEDULING_INTERVAL and EPT_FACTOR (§4.2.2) are defined next to the EPT
# they make, in .placement, and re-exported here

#: seconds to launch a job's JM process after admission (§4.1.3)
JM_CREATION_DELAY = 0.05


@ruled_dataclass()
class UrsaConfig:
    """Tunables of the scheduling layer."""

    policy: str = ruled(one_of("ejf", "srjf"), "ejf")
    policy_weight: float = ruled(NONNEG, 0.05)   # W (how strongly to enforce ordering)
    stage_aware: bool = ruled(FLAG, True)        # Fig. 7 ablation switch
    ignore_network: bool = ruled(FLAG, False)    # §5.2 ablation switch
    job_ordering: bool = ruled(FLAG, True)       # Table 6: enforce policy at admission/placement
    monotask_ordering: bool = ruled(FLAG, True)  # Table 6: enforce policy in worker queues
    # default: Algorithm 1
    placement: Optional[PlacementPolicy] = ruled(optional(PlacementPolicy), None)
    # Fault injection (repro.faults).  None or an empty plan schedules
    # nothing and leaves every code path — floats, event counts, trace
    # bytes — identical to a failure-free build (pinned by tests/faults).
    faults: Optional[FaultPlan] = ruled(optional(FaultPlan), None)
    # Retry budget for fault-induced re-execution; None = RetryPolicy().
    retry: Optional[RetryPolicy] = ruled(optional(RetryPolicy), None)

    def build_policy(self) -> SchedulingPolicy:
        policy = {"ejf": EarliestJobFirst, "srjf": SmallestRemainingJobFirst}[self.policy]
        return policy(self.policy_weight)


class _FifoPolicy(EarliestJobFirst):
    """Used when job/monotask ordering is disabled (Table 6 ablations):
    ranks by submission only and adds no placement bonus."""

    name = "fifo"

    def placement_bonus(self, job: Job, now: float) -> float:
        return 0.0


class UrsaSystem:
    """The centralized scheduler plus its worker agents."""

    def __init__(self, cluster: Cluster, config: UrsaConfig | None = None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = config or UrsaConfig()

        self.policy = self.config.build_policy()
        # Table 6 ablations: JO controls admission+placement ordering, MO
        # controls worker-queue ordering.
        self._admission_policy = self.policy if self.config.job_ordering else _FifoPolicy(0.0)
        self._queue_policy = self.policy if self.config.monotask_ordering else _FifoPolicy(0.0)

        if self.config.placement is not None:
            self.placement = self.config.placement
        else:
            self.placement = UrsaPlacement(
                stage_aware=self.config.stage_aware,
                ignore_network=self.config.ignore_network,
            )
        # Worker queues only need a per-tick resort when ranks can drift
        # between refreshes (SRJF); EJF/FIFO keys are static per job, so a
        # resort would recompute identical keys and heapify an already-valid
        # heap — a guaranteed no-op we elide.
        self._resort_each_tick = self._queue_policy.dynamic_rank
        self.workers = [
            Worker(cluster, i, self._queue_policy) for i in range(cluster.num_machines)
        ]
        self.admission = AdmissionController(cluster.total_memory_mb, self._admission_policy)

        self.jobs: list[Job] = []
        # JMs of admitted, non-terminal jobs (terminal ones are retired)
        self.jms: dict[int, JobManager] = {}
        self.active_jobs: set[int] = set()
        self.completed_jobs: list[Job] = []
        self.failed_jobs: list[Job] = []
        self._next_job_id = 0
        self._tick_scheduled = False

        # Fault layer: only wired when a non-empty plan is configured, so
        # failure-free runs carry no controller, no scheduled fault events,
        # and no per-task-completion hook (the JM's on_task_complete lookup
        # finds nothing on the class).
        self.fault_controller = None
        if self.config.faults:
            from ..faults.injector import FaultController

            self.fault_controller = FaultController(
                self, self.config.faults, self.config.retry
            )
            self.on_task_complete = self.fault_controller.task_completed

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------
    def submit(
        self,
        graph: OpGraph,
        requested_memory_mb: float,
        at: Optional[float] = None,
        category: str = "generic",
        shape: Optional[JobShape] = None,
    ) -> Job:
        """Submit a job now (or at a future simulation time); ``shape`` is
        the compiled :class:`JobShape` of ``graph``'s structure, if the
        caller keeps one."""
        job = Job(
            self._next_job_id,
            graph,
            submit_time=at if at is not None else self.sim.now,
            requested_memory_mb=requested_memory_mb,
            category=category,
            shape=shape,
        )
        self._next_job_id += 1
        self.jobs.append(job)
        if at is None or at <= self.sim.now:
            self._arrive(job)
        else:
            self.sim.at(at, self._arrive, job)
        return job

    def _arrive(self, job: Job) -> None:
        self.admission.submit(job, self.sim.now)
        self._try_admit()
        self._ensure_tick()

    def _try_admit(self) -> None:
        for job in self.admission.admit_ready(self.sim.now):
            # the JM process starts after a launch delay (§4.1.3); which
            # worker hosts it is not simulated
            self.sim.schedule(JM_CREATION_DELAY, self._start_jm, job)

    def _start_jm(self, job: Job) -> None:
        jm = JobManager(self.sim, self.cluster, job, self)
        self.jms[job.job_id] = jm
        self.active_jobs.add(job.job_id)
        rec = _obs.RECORDER
        if rec is not None:
            rec.job_started(self.sim.now, len(self.active_jobs))
        jm.start()

    # ------------------------------------------------------------------
    # SchedulerBackend protocol (called by JMs)
    # ------------------------------------------------------------------
    def on_tasks_ready(self, jm: JobManager, tasks: list[Task]) -> None:
        # tasks wait (at most one interval) for the next placement batch
        self._ensure_tick()

    def enqueue_monotask(self, jm: JobManager, mt: Monotask) -> None:
        assert mt.task is not None and mt.task.worker is not None
        self.workers[mt.task.worker].enqueue(jm, mt)

    def on_job_complete(self, jm: JobManager) -> None:
        job = jm.job
        self.active_jobs.discard(job.job_id)
        self.completed_jobs.append(job)
        rec = _obs.RECORDER
        if rec is not None:
            rec.job_completed(self.sim.now, job.jct or 0.0, len(self.active_jobs))
        self.admission.release(job)
        self._retire(jm)
        self._try_admit()

    def on_job_failed(self, jm: JobManager) -> None:
        """Fault layer: a job exhausted its retry budget.  Its admission
        reservation is returned to the pool, which may unblock waiting
        jobs — graceful degradation rather than a wedged cluster."""
        job = jm.job
        self.active_jobs.discard(job.job_id)
        self.failed_jobs.append(job)
        rec = _obs.RECORDER
        if rec is not None:
            rec.job_failed(self.sim.now, len(self.active_jobs))
        self.admission.release(job)
        self._retire(jm)
        self._try_admit()

    def _retire(self, jm: JobManager) -> None:
        """A terminal job keeps only its record: the system forgets its JM
        and the job drops its graph and plan.  Reference counting frees the
        JM and its metadata store once no pending event holds the JM; the
        plan's cyclic links wait for the cycle collector (see
        :mod:`repro.execution.job`).  Events still pending for the job reach
        the JM they captured, which keeps its own plan."""
        del self.jms[jm.job.job_id]
        jm.job.retire()

    # ------------------------------------------------------------------
    # the scheduling loop
    # ------------------------------------------------------------------
    def _ensure_tick(self) -> None:
        if not self._tick_scheduled:
            self._tick_scheduled = True
            self.sim.schedule(SCHEDULING_INTERVAL, self._tick)

    def _tick(self) -> None:
        """One batched scheduling round (Algorithm 1, §4.2.2).

        Every :data:`SCHEDULING_INTERVAL` seconds the scheduler (1) refreshes
        job ranks for the ordering policy, (2) optionally resorts worker
        queues so SRJF keys track drained work, and (3) hands the ready
        stages to the placement policy, which scores each candidate worker
        ``w`` for each task ``t`` by the estimated extra completion time

            F(t, w) = Σ_r D_r(w) · Inc_r(t, w)

        where ``D_r(w)`` is worker ``w``'s backlog-drain time for resource
        ``r`` (derived from APT_r(w), the amount of pending type-r work over
        the measured processing rate) and ``Inc_r(t, w)`` is the increment
        task ``t`` would add.  A task is only placed where its queueing
        delay stays within EPT = SCHEDULING_INTERVAL × EPT_FACTOR; see
        :mod:`repro.scheduler.placement` for the per-term computation."""
        self._tick_scheduled = False
        now = self.sim.now
        self._refresh_policies(now)
        if self._resort_each_tick:
            for w in self.workers:
                w.resort_queues()
        assignments = self.placement.place(
            self._ready_stages(), self.workers, now, self._admission_policy
        )
        self._dispatch(assignments)
        rec = _obs.RECORDER
        if rec is not None:
            rec.sched_tick(now, len(assignments))
        if self.active_jobs or self.admission.queue_length:
            self._ensure_tick()

    def _refresh_policies(self, now: float) -> None:
        """Recompute job ranks (EJF: submit order; SRJF: remaining work)
        that both the placement bonus ``W`` weighting and the worker-queue
        keys read during this round."""
        active = [self.jms[j].job for j in self.active_jobs]
        self.policy.refresh(active, now)
        if self._queue_policy is not self.policy:
            self._queue_policy.refresh(active, now)

    def _dispatch(self, assignments: list[Assignment]) -> None:
        rec = _obs.RECORDER
        for a in assignments:
            if rec is not None:
                # decision first, effects (queue pushes etc.) after it
                rec.task_placed(
                    self.sim.now, a.jm.job.job_id, a.task.task_id, a.worker,
                    a.score, len(a.task.monotasks),
                )
            self.workers[a.worker].add_assigned_task(a.task)
            a.jm.place_task(a.task, a.worker)

    def _ready_stages(self) -> list[ReadyStage]:
        """Collect Algorithm 1's candidate set: every READY task of every
        active job, grouped by stage (stage-aware scoring shares one
        ``Inc_r`` profile per stage).  Iteration is sorted job id then sorted
        stage id — determinism requires never exposing set order here."""
        ready: list[ReadyStage] = []
        for job_id in sorted(self.active_jobs):
            jm = self.jms[job_id]
            by_stage: dict[int, list[Task]] = {}
            for task in jm.ready_tasks:
                assert task.stage is not None
                by_stage.setdefault(task.stage.stage_id, []).append(task)
            for sid, tasks in sorted(by_stage.items()):
                ready.append(ReadyStage(jm, tasks[0].stage, tasks))
        return ready

    # ------------------------------------------------------------------
    # driving and reporting
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the simulation until all submitted jobs finish (or ``until``)."""
        if until is not None:
            return self.sim.run(until=until, max_events=max_events)
        return self.sim.drain() if max_events is None else self.sim.run(max_events=max_events)

    @property
    def all_done(self) -> bool:
        return all(j.state is JobState.DONE for j in self.jobs)

    @property
    def all_terminal(self) -> bool:
        """Every job reached DONE or (under fault injection) FAILED."""
        return all(j.terminal for j in self.jobs)

    def makespan(self) -> float:
        if not self.jobs:
            return 0.0
        start = min(j.submit_time for j in self.jobs)
        end = max(j.finish_time or self.sim.now for j in self.jobs)
        return end - start

    def mean_jct(self) -> float:
        jcts = [j.jct for j in self.jobs if j.jct is not None]
        return sum(jcts) / len(jcts) if jcts else 0.0
