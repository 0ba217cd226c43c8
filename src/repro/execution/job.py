"""Job records: lifecycle state, timings, and remaining-work accounting.

A job moves SUBMITTED → ADMITTED → DONE or FAILED.  Once it is terminal the
scheduler *retires* it (:meth:`Job.retire`): the record keeps its identity,
timings and counters, which is all the metrics read, and lets go of its
graph and plan.  The job's JM and its metadata store hold no reference
cycle, so reference counting frees them once no pending event refers to the
JM.  The plan's links are cyclic (``Monotask.task`` ↔ ``Task.monotasks``,
``Task.stage`` ↔ ``Stage.tasks``, barrier producers ↔ consumers), but the
:class:`~repro.dataflow.planner.PlannedJob` cuts them when its last holder
(the job, its JM, or a caller) lets go, so reference counting frees the
monotasks, tasks and stages at once.  An object kept without its plan, such
as a lone ``Task``, keeps its timings and sizes but loses its dependency
links when the plan goes.
"""

from __future__ import annotations

import enum
from typing import Optional

from ..dataflow.graph import OpGraph, ResourceType
from ..dataflow.planner import JobShape, PlannedJob, plan_job
from .estimator import static_size_totals

__all__ = ["JobState", "Job"]


class JobState(enum.Enum):
    SUBMITTED = "submitted"   # waiting for admission (memory gate, §4.2.2)
    ADMITTED = "admitted"     # JM created; tasks being scheduled
    DONE = "done"
    FAILED = "failed"         # killed by the fault layer (retry budget spent
                              # or the shrunken cluster can never admit it);
                              # finish_time is still stamped so metrics
                              # aggregate, and tasks_done records the partial
                              # result


class Job:
    """One submitted job: its graph, plan, and lifecycle bookkeeping.

    ``shape``, when given, is the compiled :class:`JobShape` of ``graph``'s
    structure (a service job type's), so only the plan is built here.
    ``name`` and ``num_tasks`` are plain attributes, fixed at submission, so
    they outlive :meth:`retire`; ``graph`` and ``plan`` do not."""

    _RES_KEYS = (ResourceType.CPU, ResourceType.NETWORK, ResourceType.DISK)

    def __init__(
        self,
        job_id: int,
        graph: OpGraph,
        submit_time: float,
        requested_memory_mb: float,
        category: str = "generic",
        shape: Optional[JobShape] = None,
    ):
        self.job_id = job_id
        self.name = graph.name
        self._graph: Optional[OpGraph] = graph
        plan = plan_job(graph, shape)
        self._plan: Optional[PlannedJob] = plan
        self.num_tasks = len(plan.tasks)
        self.submit_time = submit_time
        self.requested_memory_mb = float(requested_memory_mb)
        self.category = category

        self.state = JobState.SUBMITTED
        self.admit_time: Optional[float] = None
        self.finish_time: Optional[float] = None

        # Remaining per-resource work R (MB), used by SRJF (§4.2.2 "Job
        # ordering").  Initialized from the static size propagation ("based
        # on historical information") and decremented as monotasks finish.
        self.remaining_work: dict[ResourceType, float] = static_size_totals(graph, plan.shape)
        # Bumped on every remaining-work decrement; SRJF keys its memoized
        # per-job dot product on this, so a cache hit is always exact.
        self.work_version = 0
        self.tasks_done = 0
        self.cpu_seconds_used = 0.0
        # Ratio of a task's true memory footprint to its estimate; < 1 models
        # the conservative over-estimation UE_mem exposes (§2 "inaccurate
        # container sizing").  Workload generators set realistic values.
        self.memory_accuracy = 1.0

    @property
    def graph(self) -> OpGraph:
        if self._graph is None:
            raise self._retired("graph")
        return self._graph

    @property
    def plan(self) -> PlannedJob:
        if self._plan is None:
            raise self._retired("plan")
        return self._plan

    def _retired(self, what: str) -> RuntimeError:
        return RuntimeError(
            f"job {self.job_id} ({self.name!r}) is retired and no longer holds "
            f"its {what}; keep a reference to job.{what} before run() to "
            f"inspect it afterwards"
        )

    def retire(self) -> None:
        """Drop the graph and plan of a terminal job (see the module doc)."""
        self._graph = None
        self._plan = None

    @property
    def done(self) -> bool:
        return self.state is JobState.DONE

    @property
    def failed(self) -> bool:
        return self.state is JobState.FAILED

    @property
    def terminal(self) -> bool:
        return self.state in (JobState.DONE, JobState.FAILED)

    @property
    def jct(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    def decrement_remaining(self, rtype: ResourceType, amount: float) -> None:
        self.remaining_work[rtype] = max(0.0, self.remaining_work[rtype] - amount)
        self.work_version += 1

    def restore_remaining(self, rtype: ResourceType, amount: float) -> None:
        """Fault layer: completed work lost with a worker must be redone, so
        it re-enters the SRJF remaining-work estimate (and bumps
        ``work_version`` so memoized ranks refresh)."""
        self.remaining_work[rtype] += amount
        self.work_version += 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"Job({self.job_id}:{self.name}, {self.state.value})"
