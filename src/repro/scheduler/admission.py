"""Memory-gated job admission (§4.2.2 "Job admission").

"The scheduler admits the job if the cluster has sufficient memory, or
otherwise puts the job in a queue.  This is to prevent memory deadlock ...
memory is not actually allocated from workers at job admission, but reserved
cluster-wise."

The admission queue is ordered by the scheduling policy (earliest-first for
EJF, smallest-remaining-first for SRJF).  Smaller jobs may bypass a job that
does not fit, but to prevent the starvation of large-memory jobs (handled
"similarly as in existing schedulers"), bypassing is disabled once the head
job has waited longer than :data:`STARVATION_TIMEOUT`.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..execution.job import Job
from ..obs import recorder as _obs
from .ordering import SchedulingPolicy

__all__ = ["AdmissionController"]

#: seconds a blocked head job waits before smaller jobs may no longer
#: bypass it
STARVATION_TIMEOUT = 120.0


class AdmissionController:
    def __init__(self, total_memory_mb: float, policy: SchedulingPolicy):
        if total_memory_mb <= 0:
            raise ValueError("total memory must be positive")
        self.total_memory_mb = total_memory_mb
        self.policy = policy
        self.reserved_mb = 0.0
        self.waiting: list[Job] = []
        self._wait_since: dict[int, float] = {}

    # ------------------------------------------------------------------
    @property
    def available_mb(self) -> float:
        return self.total_memory_mb - self.reserved_mb

    def submit(self, job: Job, now: float) -> None:
        if job.requested_memory_mb > self.total_memory_mb:
            raise ValueError(
                f"job {job.job_id} requests {job.requested_memory_mb:.0f} MB; "
                f"the cluster only has {self.total_memory_mb:.0f} MB"
            )
        self.waiting.append(job)
        self._wait_since[job.job_id] = now
        rec = _obs.RECORDER
        if rec is not None:
            rec.job_submit(
                now, job.job_id, job.category, job.requested_memory_mb,
                len(self.waiting),
            )

    def release(self, job: Job) -> None:
        self.reserved_mb = max(0.0, self.reserved_mb - job.requested_memory_mb)

    def resize(self, new_total_mb: float, fail_oversized: bool = False) -> list[Job]:
        """Fault-layer hook: the admittable memory pool shrinks when a worker
        dies and grows back when it rejoins.  ``reserved_mb`` may temporarily
        exceed the new total — already-admitted jobs keep their reservations
        and the gap closes as they finish.

        With ``fail_oversized`` (permanent crashes only — blacked-out
        capacity returns), waiting jobs whose request can *never* fit the
        shrunken cluster are removed and returned so the caller can fail
        them; under a blackout they simply keep waiting for the rejoin.
        """
        if new_total_mb <= 0:
            raise ValueError("resize would leave no admittable memory")
        self.total_memory_mb = new_total_mb
        if not fail_oversized:
            return []
        doomed = [j for j in self.waiting if j.requested_memory_mb > new_total_mb]
        if doomed:
            self.waiting = [
                j for j in self.waiting if j.requested_memory_mb <= new_total_mb
            ]
            for job in doomed:
                self._wait_since.pop(job.job_id, None)
        return doomed

    def admit_ready(self, now: float) -> list[Job]:
        """Admit as many waiting jobs as memory allows, in policy order."""
        admitted: list[Job] = []
        rec = _obs.RECORDER
        self.waiting.sort(key=lambda j: (self.policy.job_rank(j, now), j.job_id))
        head_blocked = False
        remaining: list[Job] = []
        for job in self.waiting:
            if head_blocked and self._head_starving(now):
                remaining.append(job)
                continue
            if job.requested_memory_mb <= self.available_mb + 1e-9:
                self.reserved_mb += job.requested_memory_mb
                admitted.append(job)
                since = self._wait_since.pop(job.job_id, now)
                if rec is not None:
                    rec.job_admit(
                        now, job.job_id, now - since, job.requested_memory_mb
                    )
            else:
                if not head_blocked:
                    self._blocked_head = job
                head_blocked = True
                remaining.append(job)
        self.waiting = remaining
        if rec is not None and admitted:
            rec.admission_queue(now, len(self.waiting))
        return admitted

    def _head_starving(self, now: float) -> bool:
        head = getattr(self, "_blocked_head", None)
        if head is None:
            return False
        waited = now - self._wait_since.get(head.job_id, now)
        return waited > STARVATION_TIMEOUT

    @property
    def queue_length(self) -> int:
        return len(self.waiting)
