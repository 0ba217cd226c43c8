"""The frozen pre-fast-path scheduling tick: the test oracle.

:class:`ReferenceUrsaPlacement` is a verbatim copy of the Algorithm-1
implementation *before* the tick fast path landed (dirty-set undo, usage
caching, inlined candidate pruning).  It snapshot/restores **every** worker
view per candidate stage and re-derives every task-usage tuple on demand —
exactly the code the optimized :class:`~repro.scheduler.placement.\
UrsaPlacement` replaced.

:class:`ReferenceUrsaSystem` runs a whole simulation on the old tick.  It
rebuilds the three pre-change behaviours from the outside, through
``UrsaConfig.placement`` and subclasses:

* placement by :class:`ReferenceUrsaPlacement`;
* SRJF ranks recomputed on every ``_dot`` call (:class:`UnmemoizedSRJF`);
* worker queues re-sorted on *every* tick, even under statically-ranked
  policies such as EJF.

The optimized scheduler must produce bit-identical metrics, event streams,
telemetry and attributions to it (``tests/perf``, ``tests/faults``,
``tests/obs``), and the engine's assignments must match the reference
placement round by round (``tests/scheduler``).
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from typing import TYPE_CHECKING, Optional

from repro.cluster import ClusterSpec
from repro.dataflow.monotask import Task
from repro.scheduler import SmallestRemainingJobFirst, UrsaConfig, UrsaSystem
from repro.scheduler.placement import (
    _FLUID,
    STAGE_BONUS,
    Assignment,
    PlacementPolicy,
    ReadyStage,
)
from repro.scheduler.ursa import EPT_FACTOR, SCHEDULING_INTERVAL
from repro.scheduler.worker import Worker

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.execution.jobmanager import JobManager

#: cluster width the equivalence tests pin the engine at, next to the
#: 3–8-worker clusters most tests use (the benchmark's widest workload
#: runs 128 workers)
WIDE = 32


def spread(spec: ClusterSpec, machines: int = WIDE) -> ClusterSpec:
    """``spec`` with its total cores and memory spread evenly over
    ``machines`` machines: the same capacity, seen by placement as a wider
    cluster."""
    cores, rest = divmod(spec.total_cores, machines)
    assert cores > 0 and rest == 0, (spec.total_cores, machines)
    machine = spec.machine
    return replace(
        spec,
        num_machines=machines,
        machine=replace(
            machine,
            cores=cores,
            memory_mb=machine.memory_mb * spec.num_machines / machines,
        ),
    )

_CPU, _NET, _DISK = 0, 1, 2


class _WorkerView:
    """Tentative per-round view of one worker's headroom (tuple-indexed).
    The reference's own state; the engine keeps the same quantities in
    columns (``repro.scheduler.placement._VectorState``)."""

    __slots__ = (
        "worker", "index", "d", "mem_available", "inv_rate_ept", "mem_capacity",
        "alive",
    )

    def __init__(self, worker: Worker, index: int, ept: float):
        self.worker = worker
        self.index = index
        #: the paper's D_r(w) = max(0, (EPT − APT_r(w)) / EPT) per fluid
        #: resource, where APT_r(w) comes from the worker's rate monitors
        self.d = [
            max(0.0, (ept - worker.apt(r)) / ept) for r in _FLUID
        ]
        self.mem_available = worker.available_memory_mb
        self.mem_capacity = worker.memory_capacity_mb
        rates = worker.processing_rates()
        #: 1 / (rate_r(w) · EPT): multiplying by estimated usage (MB) gives
        #: Inc_r(t, w) without a division on the scoring hot path
        self.inv_rate_ept = tuple(1.0 / (max(r, 1e-9) * ept) for r in rates)
        #: dead workers (fault layer) are skipped by every candidate scan
        self.alive = worker.alive

    def snapshot(self) -> tuple:
        return (self.d[0], self.d[1], self.d[2], self.mem_available)

    def restore(self, snap: tuple) -> None:
        self.d[0], self.d[1], self.d[2], self.mem_available = snap


def _task_usage(task: Task, ignore_network: bool) -> tuple[float, float, float]:
    return (
        task.est_cpu_mb,
        0.0 if ignore_network else task.est_net_mb,
        task.est_disk_mb,
    )


class ReferenceUrsaPlacement(PlacementPolicy):
    """Algorithm 1, pre-fast-path: snapshot-all undo, no caching."""

    def __init__(
        self,
        ept: float = 0.3,
        stage_aware: bool = True,
        ignore_network: bool = False,
    ):
        if ept <= 0:
            raise ValueError("EPT must be positive")
        self.ept = ept
        self.stage_aware = stage_aware
        self.ignore_network = ignore_network

    # ------------------------------------------------------------------
    def place(self, ready, workers, now, job_policy) -> list[Assignment]:
        views = [_WorkerView(w, i, self.ept) for i, w in enumerate(workers)]
        if self.stage_aware:
            return self._place_by_stage(ready, views, now, job_policy)
        return self._place_by_task(ready, views, now, job_policy)

    # ------------------------------------------------------------------
    def _place_by_stage(self, ready, views, now, job_policy) -> list[Assignment]:
        assignments: list[Assignment] = []
        pending = [rs for rs in ready if rs.tasks]
        # lazy-greedy max-heap of (-score, tiebreak, stage)
        heap: list[tuple[float, int, ReadyStage]] = []
        for seq, rs in enumerate(pending):
            score, plan = self._stage_score_tentative(rs.tasks, views)
            if not plan:
                continue
            score += job_policy.placement_bonus(rs.jm.job, now)
            heapq.heappush(heap, (-score, seq, rs))
        seq = len(pending)
        while heap:
            neg_stale, _sq, rs = heapq.heappop(heap)
            if not rs.tasks:
                continue
            score, plan = self._stage_score_tentative(rs.tasks, views)
            if not plan:
                continue  # headroom only shrinks within a round: drop
            score += job_policy.placement_bonus(rs.jm.job, now)
            if heap and -heap[0][0] > score + 1e-12:
                # stale top: push back with the fresh score and retry
                seq += 1
                heapq.heappush(heap, (-score, seq, rs))
                continue
            placed_ids = set()
            for task, widx, f in plan:
                self._commit(views[widx], task)
                assignments.append(Assignment(rs.jm, task, widx, f))
                placed_ids.add(task.task_id)
            rs.tasks = [t for t in rs.tasks if t.task_id not in placed_ids]
            if rs.tasks:
                # the leftover was unplaceable with shrunken headroom; it
                # stays ready for the next scheduling interval
                continue
        return assignments

    def _place_by_task(self, ready, views, now, job_policy) -> list[Assignment]:
        """Fig-7 ablation: greedily place single highest-score tasks."""
        assignments: list[Assignment] = []
        pool: list[tuple["JobManager", Task]] = [
            (rs.jm, t) for rs in ready for t in rs.tasks
        ]
        while pool:
            best = None
            best_score = float("-inf")
            for i, (jm, task) in enumerate(pool):
                widx, f = self._best_worker(task, views)
                if widx is None:
                    continue
                score = f + job_policy.placement_bonus(jm.job, now)
                if score > best_score:
                    best_score, best = score, (i, widx, f)
            if best is None:
                break
            i, widx, f = best
            jm, task = pool.pop(i)
            self._commit(views[widx], task)
            assignments.append(Assignment(jm, task, widx, f))
        return assignments

    # ------------------------------------------------------------------
    # Algorithm 1's StageScore (on a tentative copy of the views)
    # ------------------------------------------------------------------
    def _stage_score_tentative(
        self, tasks, views
    ) -> tuple[float, list[tuple[Task, int, float]]]:
        snaps = [v.snapshot() for v in views]
        result = self._stage_score(tasks, views)
        for v, s in zip(views, snaps):
            v.restore(s)
        return result

    def _stage_score(self, tasks, views) -> tuple[float, list[tuple[Task, int, float]]]:
        plan: list[tuple[Task, int, float]] = []
        score = 0.0
        stage_bonus = STAGE_BONUS
        for task in tasks:
            widx, f = self._best_worker(task, views)
            if widx is None:
                stage_bonus = 0.0
            else:
                plan.append((task, widx, f))
                self._commit(views[widx], task)
                score += f
        if not plan:
            return (0.0, [])
        return (score / len(plan) + stage_bonus, plan)

    def _best_worker(self, task: Task, views) -> tuple[Optional[int], float]:
        if task.locality is not None:
            candidates = (views[task.locality],)
        else:
            candidates = views
        usage = _task_usage(task, self.ignore_network)
        best_view: Optional[_WorkerView] = None
        best_f = float("-inf")
        for view in candidates:
            f = self._score(task, usage, view)
            if f is not None and f > best_f:
                best_f, best_view = f, view
        if best_view is None:
            return None, 0.0
        return best_view.index, best_f

    def _score(self, task: Task, usage, view: _WorkerView) -> Optional[float]:
        if not view.alive:
            # fault layer: same liveness gate (and gate placement) as the
            # optimized candidate loops, so both modes stay float-identical
            return None
        mem = task.est_mem_mb
        if mem > view.mem_available + 1e-9:
            return None
        d = view.d
        inv = view.inv_rate_ept
        f = 0.0
        for r in (_CPU, _NET, _DISK):
            u = usage[r]
            if u <= 0.0:
                continue
            dr = d[r]
            if dr <= 0.0:
                # blocking rule: needed resource with zero headroom
                return None
            inc = u * inv[r]
            if inc > dr:
                inc = dr  # availability caps the contribution
            f += dr * inc
        d_mem = view.mem_available / view.mem_capacity
        if mem > 0.0:
            if d_mem <= 0.0:
                return None
            inc_mem = mem / view.mem_capacity
            f += d_mem * min(inc_mem, d_mem)
        return f

    def _commit(self, view: _WorkerView, task: Task) -> None:
        usage = _task_usage(task, self.ignore_network)
        d = view.d
        inv = view.inv_rate_ept
        for r in (_CPU, _NET, _DISK):
            if usage[r] > 0.0:
                nd = d[r] - usage[r] * inv[r]
                d[r] = nd if nd > 0.0 else 0.0
        view.mem_available -= task.est_mem_mb


class UnmemoizedSRJF(SmallestRemainingJobFirst):
    """SRJF with its ``_dot`` memo defeated: every call recomputes."""

    def _dot(self, job) -> float:
        self._dot_cache.clear()
        return super()._dot(job)


class _ReferenceConfig(UrsaConfig):
    def build_policy(self):
        if self.policy == "srjf":
            return UnmemoizedSRJF(self.policy_weight)
        return super().build_policy()


class ReferenceUrsaSystem(UrsaSystem):
    """An :class:`UrsaSystem` on the pre-fast-path tick: the reference
    placement (unless ``config.placement`` names another), unmemoized SRJF
    ranks and a worker-queue resort on every tick."""

    def __init__(self, cluster: "Cluster", config: Optional[UrsaConfig] = None):
        config = config or UrsaConfig()
        placement = config.placement
        if placement is None:
            placement = ReferenceUrsaPlacement(
                ept=SCHEDULING_INTERVAL * EPT_FACTOR,
                stage_aware=config.stage_aware,
                ignore_network=config.ignore_network,
            )
        super().__init__(
            cluster, _ReferenceConfig(**{**vars(config), "placement": placement})
        )
        self._resort_each_tick = True
