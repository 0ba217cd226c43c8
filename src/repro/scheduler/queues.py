"""Per-worker monotask queues with policy-aware ordering (§4.2.3).

"Instead of FIFO, monotasks in each queue are ordered based on the
scheduling policy and task dependency.  Among jobs, monotasks are ordered
according to their job priorities (EJF or SRJF).  Within a job, CPU
monotasks in the same stage are ordered in descending order of their input
sizes so that larger tasks can start earlier ..., while network and disk
monotasks in the same stage are ordered in ascending order of their input
sizes to make their dependent monotasks ready earlier."

Entries carry a sort key computed at enqueue time; :meth:`resort` recomputes
keys (the scheduler calls it at batch boundaries so SRJF ranks stay fresh as
remaining work drains).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from ..dataflow.graph import ResourceType
from ..dataflow.monotask import Monotask
from ..obs import recorder as _obs
from .ordering import SchedulingPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..execution.jobmanager import JobManager

__all__ = ["QueueEntry", "MonotaskQueue"]


class QueueEntry:
    __slots__ = ("key", "seq", "jm", "mt")

    def __init__(self, key: tuple, seq: int, jm: "JobManager", mt: Monotask):
        self.key = key
        self.seq = seq
        self.jm = jm
        self.mt = mt

    def __lt__(self, other: "QueueEntry") -> bool:
        return (self.key, self.seq) < (other.key, other.seq)


class MonotaskQueue:
    """An ordered queue of monotasks of one resource type at one worker.

    ``owner`` (the owning worker's index) and ``clock`` (an object with a
    ``now`` attribute, normally the simulation) are only needed for
    lifecycle tracing — queues built without them never emit events, which
    keeps standalone/unit-test construction unchanged.
    """

    def __init__(self, rtype: ResourceType, owner: Optional[int] = None, clock=None):
        self.rtype = rtype
        self._owner = owner
        self._clock = clock
        self._heap: list[QueueEntry] = []
        self._seq = 0
        # running total of queued input sizes, maintained on push/pop so
        # queued_work_mb is O(1); it feeds the queued-MB field of the
        # recorder's queue rows (APT reads Worker.assigned_work instead)
        self._work_mb = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def _key(self, policy: SchedulingPolicy, now: float, jm: "JobManager", mt: Monotask) -> tuple:
        # larger CPU monotasks first (start long work early); smaller
        # network/disk monotasks first (unblock dependents early)
        if self.rtype is ResourceType.CPU:
            intra = -mt.input_size_mb
        else:
            intra = mt.input_size_mb
        return (policy.job_rank(jm.job, now), intra)

    def push(self, policy: SchedulingPolicy, now: float, jm: "JobManager", mt: Monotask) -> None:
        entry = QueueEntry(self._key(policy, now, jm, mt), self._seq, jm, mt)
        self._seq += 1
        heapq.heappush(self._heap, entry)
        self._work_mb += mt.input_size_mb
        rec = _obs.RECORDER
        if rec is not None and self._owner is not None:
            rec.queue_push(
                now, self._owner, self.rtype, jm.job.job_id, mt.mt_id,
                len(self._heap), self._work_mb,
            )

    def pop(self) -> Optional[QueueEntry]:
        if not self._heap:
            return None
        entry = heapq.heappop(self._heap)
        if self._heap:
            self._work_mb -= entry.mt.input_size_mb
        else:
            # pin the running total back to exactly zero when the queue
            # drains, so float cancellation error cannot accumulate across
            # fill/drain cycles
            self._work_mb = 0.0
        rec = _obs.RECORDER
        if rec is not None and self._owner is not None and self._clock is not None:
            rec.queue_pop(
                self._clock.now, self._owner, self.rtype,
                entry.jm.job.job_id, entry.mt.mt_id, len(self._heap),
                self._work_mb,
            )
        return entry

    def peek(self) -> Optional[QueueEntry]:
        return self._heap[0] if self._heap else None

    def resort(self, policy: SchedulingPolicy, now: float) -> None:
        """Recompute keys (SRJF ranks drift as remaining work drains)."""
        for entry in self._heap:
            entry.key = self._key(policy, now, entry.jm, entry.mt)
        heapq.heapify(self._heap)

    def evict(self, pred: Callable[[QueueEntry], bool]) -> list[QueueEntry]:
        """Remove every entry matching ``pred`` (fault layer: dead-worker
        drain, or per-task eviction when a lineage restart pulls a task's
        queued monotasks back).  Returns the evicted entries in policy order
        so callers emit deterministic, heap-layout-independent traces; the
        survivors keep their keys and are re-heapified in place."""
        if not self._heap:
            return []
        evicted = [e for e in self._heap if pred(e)]
        if not evicted:
            return []
        self._heap = [e for e in self._heap if not pred(e)]
        heapq.heapify(self._heap)
        if self._heap:
            for entry in evicted:
                self._work_mb -= entry.mt.input_size_mb
        else:
            # same drain-to-zero pinning as pop()
            self._work_mb = 0.0
        evicted.sort()
        rec = _obs.RECORDER
        if rec is not None and self._owner is not None and self._clock is not None:
            rec.queue_evict(
                self._clock.now, self._owner, self.rtype,
                len(self._heap), self._work_mb,
                tuple([(e.jm.job.job_id, e.mt.mt_id) for e in evicted]),
            )
        return evicted

    def queued_work_mb(self) -> float:
        """Total queued input size in MB (O(1); maintained incrementally)."""
        return self._work_mb

    def __iter__(self) -> Iterator[QueueEntry]:
        """Yield entries in policy order (the order :meth:`pop` would drain
        them), not raw heap-array order — a heap's backing list only
        guarantees its *first* element is the minimum."""
        return iter(sorted(self._heap))

    def __repr__(self) -> str:
        """Show the queue in policy order (same contract as ``__iter__``):
        the raw heap array would misleadingly suggest a drain order."""
        owner = f"@w{self._owner}" if self._owner is not None else ""
        mts = ", ".join(
            f"mt{e.mt.mt_id}(j{e.jm.job.job_id})" for e in sorted(self._heap)
        )
        return (
            f"MonotaskQueue({self.rtype.value}{owner}, "
            f"{len(self._heap)} queued: [{mts}])"
        )

    __str__ = __repr__
