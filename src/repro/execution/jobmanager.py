"""Job Managers (§4.1.3) — one per job.

The JM owns the job's monotask DAG and drives the execution flow:

* it maintains the list of **ready tasks** (all parent tasks complete);
* when a task becomes ready, it resolves every monotask's input sizes from
  the metadata store (sizes are known at ready time, §4.2.1), computes the
  task's estimated per-resource usage and memory, and reports the task to
  the scheduling layer for placement;
* when the scheduler places a task on a worker, the JM sends the task's
  source monotasks to that worker's queues, and as each monotask completes
  it releases newly-ready intra-task monotasks *to the same worker*;
* it updates the metadata store as partitions are produced, tracks task and
  job completion, and maintains the SRJF remaining-work vector.

The scheduling layer talks to the JM through the small
:class:`SchedulerBackend` protocol, so Ursa's scheduler and the
executor-model baselines can host the same execution layer (that is exactly
how the paper simulates MonoSpark, §5.1.2).
"""

from __future__ import annotations

from typing import Optional, Protocol

from ..cluster.cluster import Cluster
from ..dataflow.graph import ResourceType
from ..dataflow.monotask import Monotask, MonotaskState, Task, TaskState
from ..obs import recorder as _obs
from .estimator import estimate_task_memory, estimate_task_usage
from .job import Job, JobState
from .jobprocess import JobProcess
from .metadata import MetadataStore

__all__ = ["JobManager", "SchedulerBackend"]


class SchedulerBackend(Protocol):
    """What a JM needs from the scheduling layer."""

    def on_tasks_ready(self, jm: "JobManager", tasks: list[Task]) -> None:
        """New ready tasks with estimates filled; schedule their placement."""

    def enqueue_monotask(self, jm: "JobManager", mt: Monotask) -> None:
        """Queue a ready monotask at its task's assigned worker."""

    def on_job_complete(self, jm: "JobManager") -> None:
        """All tasks of the job finished."""


class JobManager(JobProcess):
    """Coordinates the execution flow of one job; its :class:`JobProcess`
    base runs the job's monotasks, so one object executes the job."""

    def __init__(
        self,
        sim,
        cluster: Cluster,
        job: Job,
        backend: SchedulerBackend,
        reserve_per_task: bool = True,
    ):
        self.sim = sim
        self.cluster = cluster
        self.job = job
        # the JM owns the plan for the job's lifetime: the Job record lets
        # go of it when the scheduler retires the job, while late events
        # (fault recovery, grant timeouts) may still reach this JM
        self.plan = job.plan
        self.backend = backend
        self.metadata = MetadataStore()
        # Ursa reserves memory per task and a core per CPU monotask; the
        # executor-model baselines host the same execution layer but their
        # *containers* hold the reservations instead (§5.1.2, Y+U).
        self.reserve_per_task = reserve_per_task
        # insertion-ordered so readiness-order float sums keep their exact
        # reduction order; dict-keyed so place_task's removal is O(1)
        self.ready_tasks: dict[Task, None] = {}

        for handle in job.graph.datasets:
            if handle.is_input:
                self.metadata.load_inputs(handle)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Called at admission: surface the root tasks for placement."""
        self.job.state = JobState.ADMITTED
        self.job.admit_time = self.sim.now
        rec = _obs.RECORDER
        if rec is not None:
            rec.jm_start(self.sim.now, self.job.job_id)
        if self.job.num_tasks == 0:
            # a no-op graph (e.g. collect() on raw input data) is complete
            # the moment it is admitted
            self.job.state = JobState.DONE
            self.job.finish_time = self.sim.now
            if rec is not None:
                rec.job_finish(self.sim.now, self.job.job_id, self.job.jct or 0.0)
            self.backend.on_job_complete(self)
            return
        newly = []
        for task in self.plan.tasks:
            if task.remaining_parents == 0:
                newly.append(task)
        self._mark_ready(newly)

    def _mark_ready(self, tasks: list[Task]) -> None:
        if not tasks:
            return
        for task in tasks:
            task.state = TaskState.READY
            task.ready_at = self.sim.now
            self._resolve_task_inputs(task)
            self.ready_tasks[task] = None
        # memory estimates depend on the full ready set (the ratio r)
        ready_input_total = sum(t.input_size_mb() for t in self.ready_tasks)
        for task in tasks:
            estimate_task_usage(task)
            task.est_mem_mb = estimate_task_memory(
                task, self.job.requested_memory_mb, ready_input_total
            )
        rec = _obs.RECORDER
        if rec is not None and rec.tracing:
            now = self.sim.now
            for task in tasks:
                rec.task_ready(
                    now, self.job.job_id, task.task_id,
                    task.stage.stage_id if task.stage is not None else -1,
                    len(task.monotasks), task.input_size_mb(),
                )
                rec.task_deps(now, self.job.job_id, task)
        self.backend.on_tasks_ready(self, tasks)

    # ------------------------------------------------------------------
    # input-size resolution (§4.2.1: sizes known when the task is ready)
    # ------------------------------------------------------------------
    def _resolve_task_inputs(self, task: Task) -> None:
        # the planner emits each task's monotasks parents-first, so every
        # monotask's intra-task parents are resolved before it
        for mt in task.monotasks:
            if mt.rtype is ResourceType.NETWORK:
                self._resolve_network(mt)
            elif mt.rtype is ResourceType.DISK:
                self._resolve_disk(mt)
            else:
                self._resolve_cpu(mt, task)

    def _resolve_network(self, mt: Monotask) -> None:
        # consumers of an evenly split shuffle share one PullSet
        pull = self.metadata.pull_sources(
            mt.head_op, mt.partition_index, self.cluster.num_machines
        )
        mt.sources = pull
        mt.input_size_mb = pull.total_mb
        mt.work_mb = mt.input_size_mb
        mt.expected_out_mb = mt.input_size_mb

    def _resolve_disk(self, mt: Monotask) -> None:
        parents = mt.intra_task_parents
        if parents:
            # disk write: consumes the output of its (CPU) parent(s)
            mt.input_size_mb = sum(p.expected_out_mb for p in parents)
        else:
            # disk read of job input partitions
            find, part = self.metadata.find, mt.partition_index
            mt.input_size_mb = sum(
                rec.size_mb for h in mt.head_op.reads
                if (rec := find(h, part)) is not None
            )
        mt.work_mb = mt.input_size_mb
        mt.expected_out_mb = mt.input_size_mb

    def _resolve_cpu(self, mt: Monotask, task: Task) -> None:
        chain_created = {op.output.data_id for op in mt.ops if op.output is not None}
        parent_outputs = {
            op.output.data_id
            for p in mt.intra_task_parents
            for op in p.ops
            if op.output is not None
        }
        external = sum(p.expected_out_mb for p in mt.intra_task_parents)
        cached_locs: dict[int, float] = {}
        find = self.metadata.find
        for op in mt.ops:
            for h in op.reads:
                if h.data_id in chain_created or h.data_id in parent_outputs:
                    continue
                rec = find(h, mt.partition_index)
                if rec is not None:
                    external += rec.size_mb
                    if rec.location is not None:
                        cached_locs[rec.location] = (
                            cached_locs.get(rec.location, 0.0) + rec.size_mb
                        )
        mt.input_size_mb = external
        # walk the fused chain to accumulate actual CPU work and expected
        # output sizes (the usage *estimate* stays the input size)
        size = external
        work = 0.0
        outputs: list = []
        for op in mt.ops:
            work += size * op.cpu_work_factor
            if op.size_fn is not None:
                size = op.size_fn(mt.partition_index, size)
            if op.output is not None:
                outputs.append((op.output, size))
        mt.work_mb = work
        mt.expected_out_mb = size
        mt.chain_outputs = outputs
        # reading resident partitions pins the task to their machine (§3
        # Obj-3: "observing locality constraints")
        if cached_locs and task.locality is None:
            task.locality = max(cached_locs.items(), key=lambda kv: kv[1])[0]

    # ------------------------------------------------------------------
    # placement and execution
    # ------------------------------------------------------------------
    def place_task(self, task: Task, worker: int) -> None:
        """The scheduler assigned ``task`` to ``worker``; reserve its memory
        and send its source monotasks to the worker's queues."""
        if task.state is not TaskState.READY:
            raise RuntimeError(f"{task!r} is not ready for placement")
        machine = self.cluster.machine(worker)
        if self.reserve_per_task:
            machine.reserve_memory(task.est_mem_mb)
        machine.use_memory(self._actual_memory(task))
        task.state = TaskState.PLACED
        task.worker = worker
        task.placed_at = self.sim.now
        del self.ready_tasks[task]
        for mt in task.source_monotasks:
            mt.state = MonotaskState.READY
            self.backend.enqueue_monotask(self, mt)

    def run_monotask(self, mt: Monotask, on_done) -> None:
        """Called by the worker when resources are granted to ``mt``."""
        self.run(mt, on_done)

    # ------------------------------------------------------------------
    # completion flow
    # ------------------------------------------------------------------
    def monotask_finished(self, mt: Monotask) -> None:
        task = mt.task
        assert task is not None
        rec = _obs.RECORDER
        if rec is not None:
            rec.mt_finish(
                self.sim.now, self.job.job_id, task.task_id, mt.mt_id,
                mt.rtype, task.worker if task.worker is not None else -1,
            )
        task.remaining_monotasks -= 1
        self.job.decrement_remaining(mt.rtype, mt.input_size_mb)
        if mt.rtype is ResourceType.CPU and mt.started_at is not None:
            self.job.cpu_seconds_used += (mt.finished_at or self.sim.now) - mt.started_at

        if task.remaining_monotasks > 0:
            # release newly-ready intra-task monotasks to the same worker
            for child in mt.intra_task_children:
                if child.state is MonotaskState.PENDING:
                    if all(
                        p.state is MonotaskState.DONE for p in child.intra_task_parents
                    ):
                        child.state = MonotaskState.READY
                        self.backend.enqueue_monotask(self, child)
            return

        self._task_finished(task)

    def _actual_memory(self, task: Task) -> float:
        """True memory footprint: the estimate scaled by the job's accuracy
        factor (users/estimators over-provision; UE_mem measures the gap)."""
        return task.est_mem_mb * self.job.memory_accuracy

    # ------------------------------------------------------------------
    # fault recovery (driven by repro.faults; unused in failure-free runs)
    # ------------------------------------------------------------------
    def fault_rewind_task(self, task: Task) -> float:
        """Rewind a READY / PLACED / DONE task to BLOCKED so the normal
        ready→place→enqueue path re-executes it from scratch.

        The caller (:class:`repro.faults.injector.FaultController`) has
        already aborted the task's running monotasks and evicted its queued
        ones; this method unwinds the JM-side state: placement memory,
        completion counters, the SRJF remaining-work vector (lost completed
        work must be redone), and every monotask's resolution state — sizes,
        shuffle sources and localities are recomputed from fresh metadata at
        the next ``_mark_ready``.  Returns the input MB of completed +
        running monotasks whose work is wasted.
        """
        job = self.job
        wasted = 0.0
        if task.state is TaskState.PLACED and task.worker is not None:
            machine = self.cluster.machine(task.worker)
            if self.reserve_per_task:
                machine.release_memory(task.est_mem_mb)
            machine.unuse_memory(self._actual_memory(task))
        elif task.state is TaskState.DONE:
            # its placement memory was released at completion
            job.tasks_done -= 1
        elif task.state is TaskState.READY:
            self.ready_tasks.pop(task, None)
        for mt in task.monotasks:
            if mt.state is MonotaskState.DONE:
                wasted += mt.input_size_mb
                job.restore_remaining(mt.rtype, mt.input_size_mb)
            elif mt.state is MonotaskState.RUNNING:
                wasted += mt.input_size_mb
            mt.state = MonotaskState.PENDING
            mt.started_at = None
            mt.finished_at = None
            mt.sources = None
            mt.chain_outputs = None
            mt.input_size_mb = 0.0
            mt.work_mb = 0.0
            mt.expected_out_mb = 0.0
        task.state = TaskState.BLOCKED
        task.worker = None
        task.locality = None
        task.sched_profile = None
        task._input_mb = None
        task.remaining_monotasks = len(task.monotasks)
        task.ready_at = None
        task.placed_at = None
        task.finished_at = None
        return wasted

    def fault_recount_dependencies(self) -> None:
        """Re-derive the dependency counters from task states after rewinds
        invalidated the incremental ones.

        Every shuffle barrier re-counts its unfinished producers and is
        re-armed to settle that many when they finish (a rewound DONE
        producer makes a released barrier wait again).  Every non-terminal
        task's ``remaining_parents`` becomes its number of unfinished parent
        tasks, so it reaches zero exactly when the last of them finishes.
        A PLACED or DONE consumer of a re-armed barrier only goes below
        zero, as it did with one decrement per parent.

        A READY task with a rewound parent is pulled back to BLOCKED: the
        parent's outputs are gone, so it must wait for the re-execution and
        re-resolve its inputs then.  (Its own resolved inputs, if damaged,
        already placed it in the restart set — this handles the purely
        counter-level fallout.)  PLACED and DONE tasks are left alone: any
        placed task with a rewound parent reads that parent's now-dead data
        and was therefore itself rewound before this runs.
        """
        done = TaskState.DONE
        for barrier in self.plan.barriers:
            unfinished = sum(1 for p in barrier.producers if p.state is not done)
            barrier.remaining = barrier.credit = unfinished
        for task in self.plan.tasks:
            if task.state in (TaskState.DONE, TaskState.PLACED):
                continue
            # a task's barriers hold disjoint producer sets
            count = sum(b.remaining for b in task.parent_barriers)
            count += sum(1 for p in task.async_parents if p.state is not done)
            task.remaining_parents = count
            if task.state is TaskState.READY and count > 0:
                self.ready_tasks.pop(task, None)
                task.state = TaskState.BLOCKED
                task.locality = None
                task.sched_profile = None
                task._input_mb = None
                task.ready_at = None

    def fault_recover_ready(self, task: Task) -> None:
        """Deferred re-ready callback (scheduled with the retry backoff).
        Guarded: the task may have been re-readied through a parent's
        completion, rewound again, or its job failed in the meantime."""
        if self.job.state is not JobState.ADMITTED:
            return
        if task.state is TaskState.BLOCKED and task.remaining_parents == 0:
            self._mark_ready([task])

    def fault_requeue_monotask(self, mt: Monotask) -> None:
        """Deferred re-enqueue of a grant-timeout victim: the monotask keeps
        its resolved sizes/sources (its inputs are intact — only the grant
        was lost) and rejoins its worker's queue through the normal path."""
        task = mt.task
        if self.job.state is not JobState.ADMITTED or task is None:
            return
        if mt.state is MonotaskState.READY and task.state is TaskState.PLACED:
            self.backend.enqueue_monotask(self, mt)

    def fault_mark_failed(self, now: float) -> None:
        """Retry budget exhausted (or the job can never fit the shrunken
        cluster): stamp a terminal FAILED state.  ``finish_time`` is set so
        metrics still aggregate, and ``tasks_done`` keeps the partial-result
        count.  The fault controller tears down placed tasks and notifies
        the scheduler backend."""
        self.job.state = JobState.FAILED
        self.job.finish_time = now
        self.ready_tasks.clear()
        self.metadata.drop_pulls()
        rec = _obs.RECORDER
        if rec is not None:
            rec.job_finish(now, self.job.job_id, self.job.jct or 0.0, failed=True)

    def _task_finished(self, task: Task) -> None:
        task.state = TaskState.DONE
        task.finished_at = self.sim.now
        self.job.tasks_done += 1
        assert task.worker is not None
        rec = _obs.RECORDER
        if rec is not None:
            rec.task_finish(self.sim.now, self.job.job_id, task.task_id, task.worker)
        machine = self.cluster.machine(task.worker)
        if self.reserve_per_task:
            machine.release_memory(task.est_mem_mb)
        machine.unuse_memory(self._actual_memory(task))

        # a shuffle barrier settles its producers for every consumer at
        # once, when the last of them finishes
        newly_ready: list[Task] = []
        for barrier in task.child_barriers:
            barrier.remaining -= 1
            if barrier.remaining == 0:
                credit = barrier.credit
                for child in barrier.consumers:
                    child.remaining_parents -= credit
                    if child.remaining_parents == 0:
                        newly_ready.append(child)
        for child in task.async_children:
            child.remaining_parents -= 1
            if child.remaining_parents == 0:
                newly_ready.append(child)
        # sort so ready order — and hence placement tie-breaking — does not
        # depend on barrier or consumer order
        newly_ready.sort(key=lambda t: t.task_id)
        self._mark_ready(newly_ready)

        # optional backend hook (executor-model baselines free task slots)
        notify = getattr(self.backend, "on_task_complete", None)
        if notify is not None:
            notify(self, task)

        if self.job.tasks_done == self.job.num_tasks:
            self.job.state = JobState.DONE
            self.job.finish_time = self.sim.now
            self.metadata.drop_pulls()
            if rec is not None:
                rec.job_finish(self.sim.now, self.job.job_id, self.job.jct or 0.0)
            self.backend.on_job_complete(self)
