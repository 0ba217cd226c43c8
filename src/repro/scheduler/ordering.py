"""Job-ordering policies: EJF and SRJF (§4.2.2 "Job ordering").

Both policies influence Ursa in three places:

1. **Job admission** — the admission queue is ordered by the policy.
2. **Task placement** — a per-job bonus is added to every stage score so
   higher-priority jobs' stages are placed first (the paper adds ``W·T`` for
   EJF, with an analogous enforcement for SRJF).
3. **Monotask ordering** — worker queues order monotasks of different jobs
   by the policy's rank (§4.2.3).

SRJF ranks jobs by the remaining per-resource work vector ``R`` against the
cluster load vector ``L``: the priority score is the inverse of
``Σ_r (2L_r − R_r) · R_r / L_r`` — "when a resource is heavily demanded,
more weight is given to it to pick the job with the smallest remaining
work".  Smaller dot-product ⇒ higher priority.
"""

from __future__ import annotations

from typing import Iterable

from ..dataflow.graph import ResourceType
from ..execution.job import Job

__all__ = ["SchedulingPolicy", "EarliestJobFirst", "SmallestRemainingJobFirst"]

_RES = (ResourceType.CPU, ResourceType.NETWORK, ResourceType.DISK)
_EPS = 1e-9
#: cap on SRJF's placement urgency, which keeps stage scores comparable
SRJF_BONUS_CAP = 200.0


class SchedulingPolicy:
    """Interface: rank jobs (lower = more urgent) and weight stage scores."""

    name = "base"
    #: True when a job's rank can change between two refreshes (e.g. SRJF,
    #: whose rank tracks remaining work).  Statically-ranked policies let
    #: the scheduler skip the per-tick worker-queue resort entirely.
    dynamic_rank = False

    def __init__(self, weight: float = 0.05):
        # W in the paper: "a weight that indicates how much EJF should be
        # enforced" (and analogously for SRJF).
        self.weight = weight

    def refresh(self, jobs: Iterable[Job], now: float) -> None:
        """Recompute any global state (e.g. SRJF's cluster load L)."""

    def job_rank(self, job: Job, now: float) -> float:
        """Total order over jobs; lower rank = scheduled first."""
        raise NotImplementedError

    def placement_bonus(self, job: Job, now: float) -> float:
        """Additive bonus for this job's stages in Algorithm 1."""
        raise NotImplementedError


class EarliestJobFirst(SchedulingPolicy):
    """EJF: prioritize by submission time; bonus grows as W·T (elapsed)."""

    name = "ejf"

    def job_rank(self, job: Job, now: float) -> float:
        # job_id breaks ties among same-instant submissions so "earliest"
        # stays well-defined (submission order)
        return job.submit_time + 1e-6 * job.job_id

    def placement_bonus(self, job: Job, now: float) -> float:
        return self.weight * max(0.0, now - job.submit_time) - 1e-9 * job.job_id


class SmallestRemainingJobFirst(SchedulingPolicy):
    """SRJF over the per-resource remaining-work vector R (§4.2.2)."""

    name = "srjf"
    dynamic_rank = True

    def __init__(self, weight: float = 0.05):
        super().__init__(weight)
        self._load: dict[ResourceType, float] = {r: 0.0 for r in _RES}
        self._total_load = 0.0
        # job_id -> (job.work_version, dot); valid within one refresh
        self._dot_cache: dict[int, tuple[int, float]] = {}

    def refresh(self, jobs: Iterable[Job], now: float) -> None:
        load = {r: 0.0 for r in _RES}
        for job in jobs:
            for r in _RES:
                load[r] += job.remaining_work.get(r, 0.0)
        self._load = load
        self._total_load = sum(load.values())
        self._dot_cache.clear()

    def _dot(self, job: Job) -> float:
        """Σ_r (2L_r − R_r) · R_r / L_r — small when the job is nearly done.

        ``job_rank`` and ``placement_bonus`` both call this, for every queue
        entry on every resort and for every stage score of a placement
        round, so the value is memoized per refresh.  The cache entry is
        keyed by ``job.work_version`` (bumped whenever remaining work is
        decremented), so a hit is exactly the value a recompute would give.
        """
        cached = self._dot_cache.get(job.job_id)
        if cached is not None and cached[0] == job.work_version:
            return cached[1]
        total = 0.0
        for r in _RES:
            big_l = self._load[r]
            rem = min(job.remaining_work.get(r, 0.0), big_l)
            if big_l <= _EPS:
                continue
            total += (2.0 * big_l - rem) * rem / big_l
        self._dot_cache[job.job_id] = (job.work_version, total)
        return total

    def job_rank(self, job: Job, now: float) -> float:
        return self._dot(job)

    def placement_bonus(self, job: Job, now: float) -> float:
        """W × (ΣL / dot): dimensionless urgency that diverges as a job's
        remaining work approaches zero (finish nearly-done jobs), capped at
        :data:`SRJF_BONUS_CAP`."""
        dot = self._dot(job)
        if self._total_load <= _EPS:
            return 0.0
        urgency = self._total_load / max(dot, _EPS)
        return self.weight * min(urgency, SRJF_BONUS_CAP)
