"""Worker agents: distributed queue management (§4.2.3).

Each worker owns one queue per resource type and performs the *actual*
resource allocation: when a resource slot frees up, the highest-priority
queued monotask starts immediately — no round-trip through the centralized
scheduler, which is what keeps allocation latency low (Obj-4).

Concurrency control follows the paper:

* CPU — as many concurrent monotasks as cores;
* disk — one monotask per disk (a single sequential stream already saturates
  the spindle);
* network — a small constant (1–4) per worker to avoid contention, with a
  bypass lane for latency-sensitive small transfers (< 16 KB).

The worker also monitors per-resource processing rates: ``rate_r = X/T``
over a window of completed type-r monotasks (times the core count for CPU),
which the scheduler uses to turn assigned work into
``APT_r(w)`` — the approximate processing time to drain worker ``w``'s
type-r backlog.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..cluster.cluster import Cluster
from ..dataflow.graph import ResourceType
from ..dataflow.monotask import Monotask, MonotaskState, Task
from ..obs import recorder as _obs
from .ordering import SchedulingPolicy
from .queues import MonotaskQueue

if TYPE_CHECKING:  # pragma: no cover
    from ..execution.jobmanager import JobManager

__all__ = ["Worker"]

_RES = (ResourceType.CPU, ResourceType.NETWORK, ResourceType.DISK)
# module constants: reading an Enum member through its class costs ~100 ns,
# and the load metrics below run for every placement-row refresh
_CPU, _NET, _DISK = _RES


#: concurrent network monotasks per worker: "a small constant (1–4)" (§4.2.3)
NETWORK_CONCURRENCY = 2
#: transfers smaller than this (16 KB) take the bypass lane (§4.2.3)
SMALL_NETWORK_MB = 16.0 / 1024.0
#: completed monotasks per resource in the processing-rate window
RATE_WINDOW = 50


class _RateMonitor:
    """Sliding-window X/T processing-rate estimate, seeded with the nominal
    hardware rate so cold workers still get sensible APTs.  Sums are kept
    incrementally so reading the rate is O(1) (it is on the placement
    algorithm's innermost path)."""

    def __init__(self, nominal_rate: float, window: int):
        self._samples: deque[tuple[float, float]] = deque()
        self._window = window
        # one nominal pseudo-sample anchors the estimate
        self._x = nominal_rate * 1.0
        self._t = 1.0
        self.rate = self._x / self._t

    def record(self, work_mb: float, duration_s: float) -> None:
        if duration_s <= 1e-9 or work_mb <= 0:
            return
        self._samples.append((work_mb, duration_s))
        self._x += work_mb
        self._t += duration_s
        if len(self._samples) > self._window:
            old_x, old_t = self._samples.popleft()
            self._x -= old_x
            self._t -= old_t
        self.rate = self._x / self._t


def _rate_monitors(spec) -> dict[ResourceType, _RateMonitor]:
    """Fresh per-resource monitors seeded with the machine's nominal rates."""
    return {
        _CPU: _RateMonitor(spec.core_rate_mbps, RATE_WINDOW),
        _NET: _RateMonitor(spec.net_mbps, RATE_WINDOW),
        _DISK: _RateMonitor(spec.disk_mbps, RATE_WINDOW),
    }


class Worker:
    """Queue management and resource allocation for one machine."""

    def __init__(self, cluster: Cluster, index: int, policy: SchedulingPolicy):
        self.cluster = cluster
        self.sim = cluster.sim
        self.index = index
        self.machine = cluster.machine(index)
        self.policy = policy
        #: cleared by the fault layer while the worker is crashed / blacked
        #: out; placement skips dead workers and nothing is enqueued on them
        self.alive = True
        #: the placement engine's dirty set once :meth:`watch` attached it
        #: (``None`` before): every change to an input of this worker's
        #: Algorithm-1 row adds ``index`` to it
        self.dirty: set[int] | None = None

        self.queues: dict[ResourceType, MonotaskQueue] = {
            r: MonotaskQueue(r, owner=index, clock=self.sim) for r in _RES
        }
        self.running: dict[ResourceType, int] = {r: 0 for r in _RES}
        self.assigned_work: dict[ResourceType, float] = {r: 0.0 for r in _RES}
        spec = self.machine.spec
        #: concurrent grants per resource (§4.2.3 "Concurrency control"):
        #: a core per CPU monotask, a small constant for the network, one
        #: stream per disk
        self.limits: dict[ResourceType, int] = {
            _CPU: spec.cores, _NET: NETWORK_CONCURRENCY, _DISK: spec.disks,
        }
        self.rates: dict[ResourceType, _RateMonitor] = _rate_monitors(spec)
        rec = _obs.RECORDER
        if rec is not None:
            rec.worker_spec(
                self.sim.now, index, spec.cores, spec.disks,
                NETWORK_CONCURRENCY, spec.core_rate_mbps,
                spec.net_mbps, spec.disk_mbps,
            )

    # ------------------------------------------------------------------
    # load metrics consumed by Algorithm 1
    # ------------------------------------------------------------------
    def watch(self, dirty: set[int]) -> None:
        """Report changes to this worker's placement inputs — ``APT_r(w)``,
        processing rates, liveness and the machine's free memory — into
        ``dirty`` from now on."""
        self.dirty = self.machine.dirty = dirty

    def mark_dirty(self) -> None:
        """The seam every change to this worker's placement inputs goes
        through; its machine's memory reserve/release calls mark the same
        set (``Machine.dirty``)."""
        dirty = self.dirty
        if dirty is not None:
            dirty.add(self.index)

    def processing_rate(self, rtype: ResourceType) -> float:
        """MB/s the worker processes type-r work at (X/T; ×cores for CPU)."""
        rate = self.rates[rtype].rate
        if rtype is _CPU:
            rate *= self.machine.spec.cores
        return rate

    def processing_rates(self) -> tuple[float, float, float]:
        """(cpu, network, disk) rates as one tuple for the placement loop."""
        return (
            self.rates[_CPU].rate * self.machine.spec.cores,
            self.rates[_NET].rate,
            self.rates[_DISK].rate,
        )

    def apt(self, rtype: ResourceType) -> float:
        """Approximate processing time to finish all assigned type-r work."""
        if rtype is _CPU and self.running[_CPU] < self.limits[_CPU]:
            # "if CPU in w is immediately available ... APT_cpu(w) = 0"
            return 0.0
        return self.assigned_work[rtype] / max(self.processing_rate(rtype), 1e-9)

    @property
    def available_memory_mb(self) -> float:
        return self.machine.memory.available

    @property
    def memory_capacity_mb(self) -> float:
        return self.machine.memory.capacity

    # ------------------------------------------------------------------
    # task assignment bookkeeping (from the centralized scheduler)
    # ------------------------------------------------------------------
    def add_assigned_task(self, task: Task) -> None:
        for mt in task.monotasks:
            self.assigned_work[mt.rtype] += mt.input_size_mb
        self.mark_dirty()

    # ------------------------------------------------------------------
    # fault-layer hooks (no-ops in failure-free runs)
    # ------------------------------------------------------------------
    def is_bypass(self, mt: Monotask) -> bool:
        """Whether ``mt`` went through the small-network bypass lane (such
        grants never incremented ``running``, so aborts must not decrement)."""
        return mt.rtype is _NET and mt.input_size_mb < SMALL_NETWORK_MB

    def remove_assigned_task(self, task: Task) -> None:
        """Undo :meth:`add_assigned_task` for a task being torn down: only
        the not-yet-completed monotasks still count toward the backlog
        (completed ones were subtracted by :meth:`_account_completion`)."""
        for mt in task.monotasks:
            if mt.state is not MonotaskState.DONE:
                self.assigned_work[mt.rtype] = max(
                    0.0, self.assigned_work[mt.rtype] - mt.input_size_mb
                )
        self.mark_dirty()

    def release_running(self, rtype: ResourceType) -> None:
        """Free the slot held by an aborted (non-bypass) running monotask.
        The fault layer calls :meth:`backfill` once teardown is complete, so
        the slot is not immediately re-granted mid-rewind."""
        self.running[rtype] -= 1
        self.mark_dirty()

    def backfill(self) -> None:
        """Start queued monotasks into any slots freed by aborts."""
        for rtype in _RES:
            self._maybe_start(rtype)

    def fault_crash(self) -> None:
        """Take the worker offline: drop every queued monotask (their tasks
        are rewound by the fault layer) and zero the load metrics feeding
        ``APT_r(w)``."""
        self.alive = False
        for q in self.queues.values():
            q.evict(lambda entry: True)
        self.running = {r: 0 for r in _RES}
        self.assigned_work = {r: 0.0 for r in _RES}
        self.mark_dirty()

    def fault_rejoin(self) -> None:
        """Bring a blacked-out worker back with empty queues and freshly
        seeded rate monitors, so ``APT_r(w)`` restarts from the nominal
        hardware rates rather than stale pre-crash samples."""
        self.alive = True
        self.rates = _rate_monitors(self.machine.spec)
        self.mark_dirty()

    # ------------------------------------------------------------------
    # queue operations (called via the JM backend)
    # ------------------------------------------------------------------
    def enqueue(self, jm: "JobManager", mt: Monotask) -> None:
        mt.state = MonotaskState.QUEUED
        if mt.rtype is _NET and mt.input_size_mb < SMALL_NETWORK_MB:
            # latency-sensitive small transfers bypass the queue (§4.2.3)
            self._grant(jm, mt, self._small_network_done, bypass=True)
            return
        self.queues[mt.rtype].push(self.policy, self.sim.now, jm, mt)
        self._maybe_start(mt.rtype)

    def resort_queues(self) -> None:
        for q in self.queues.values():
            q.resort(self.policy, self.sim.now)

    def _maybe_start(self, rtype: ResourceType) -> None:
        queue = self.queues[rtype]
        limit = self.limits[rtype]
        while self.running[rtype] < limit:
            entry = queue.pop()
            if entry is None:
                return
            self.running[rtype] += 1
            if rtype is _CPU:
                self.mark_dirty()  # APT_cpu reads the free CPU slots
            self._grant(entry.jm, entry.mt, self._monotask_done, bypass=False)

    def _grant(self, jm: "JobManager", mt: Monotask, on_done, *, bypass: bool) -> None:
        """The single seam through which every monotask start flows — queue
        pops and the small-network bypass lane alike — so resource-grant
        instrumentation lives in exactly one place for both the optimized
        scheduler and the tests' frozen reference tick."""
        rec = _obs.RECORDER
        if rec is not None:
            rec.mt_start(
                self.sim.now, self.index, mt.rtype, jm.job.job_id,
                mt.mt_id, self.running[mt.rtype], bypass,
            )
        jm.run_monotask(mt, on_done)

    # ------------------------------------------------------------------
    # completion callbacks
    # ------------------------------------------------------------------
    def _monotask_done(self, mt: Monotask) -> None:
        rtype = mt.rtype
        self.running[rtype] -= 1  # marked dirty by _account_completion
        self._account_completion(mt)
        self._maybe_start(rtype)

    def _small_network_done(self, mt: Monotask) -> None:
        self._account_completion(mt)

    def _account_completion(self, mt: Monotask) -> None:
        """The matching release seam: every completion — queued or bypass —
        is accounted (and traced) here."""
        rec = _obs.RECORDER
        if rec is not None:
            rec.res_release(
                self.sim.now, self.index, mt.rtype, mt.mt_id,
                self.running[mt.rtype],
            )
        self.assigned_work[mt.rtype] = max(
            0.0, self.assigned_work[mt.rtype] - mt.input_size_mb
        )
        if mt.started_at is not None and mt.finished_at is not None:
            self.rates[mt.rtype].record(mt.input_size_mb, mt.finished_at - mt.started_at)
        self.mark_dirty()

    # ------------------------------------------------------------------
    @property
    def queued_monotasks(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def __repr__(self) -> str:  # pragma: no cover
        return f"Worker({self.index}, queued={self.queued_monotasks})"
