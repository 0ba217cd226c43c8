"""Alternative placement policies plugged into Ursa (§5.1.2, Table 4).

* :class:`TetrisPlacement` — the multi-resource packing of Tetris [17]:
  each task carries a *peak* demand vector; a worker is feasible only if
  every peak demand fits within its instantaneous availability, and the
  chosen worker maximizes the alignment score ``Σ_r demand_r · avail_r``.
  Because a fetching task's peak network demand is the full downlink, a
  worker with any in-flight transfer rejects further network-bearing tasks —
  the blocking pathology the paper reports ("task assignment is blocked when
  a task's peak network demand exceeds the available network bandwidth, even
  though the network is not being used most of the time").
* ``TetrisPlacement(include_network=False)`` — the paper's **Tetris2**,
  which ignores the network dimension and therefore packs better.
* :class:`CapacityPlacement` — YARN's Capacity-style greedy: give each task
  to the worker with the most available resources (free cores, then free
  memory).

Both use peak demands and task-granular decisions — no estimated *total*
usage, no stage-awareness — which is what Table 4's SE_cpu gap ablates.
"""

from __future__ import annotations

from typing import Optional

from ..dataflow.graph import ResourceType
from ..dataflow.monotask import Task
from ..scheduler.placement import Assignment, PlacementPolicy

__all__ = ["TetrisPlacement", "CapacityPlacement"]


class _Avail:
    """Tentative per-round availability of one worker (peak-demand units)."""

    __slots__ = ("worker", "alive", "cores", "net", "disk", "mem")

    def __init__(self, worker):
        m = worker.machine
        queued_cpu = len(worker.queues[ResourceType.CPU])
        self.worker = worker
        # a crashed worker's counts and queues are empty, so it looks idle:
        # dead workers (fault layer) take no placements
        self.alive = worker.alive
        self.cores = max(0.0, m.spec.cores - worker.running[ResourceType.CPU] - queued_cpu)
        net_busy = worker.running[ResourceType.NETWORK] + len(worker.queues[ResourceType.NETWORK])
        self.net = 1.0 if net_busy == 0 else 0.0
        disk_busy = worker.running[ResourceType.DISK] + len(worker.queues[ResourceType.DISK])
        self.disk = 1.0 if disk_busy == 0 else 0.0
        self.mem = worker.available_memory_mb


def _candidates(task: Task, avails: list[_Avail]) -> list[int]:
    """Indices of the alive workers a task may go to: its locality pin, or
    any."""
    pool = range(len(avails)) if task.locality is None else (task.locality,)
    return [i for i in pool if avails[i].alive]


def _peak_demand(task: Task) -> tuple[float, float, float, float]:
    """(cores, net_frac, disk_frac, mem_mb) peak demands of a task."""
    cores = float(len(task.cpu_monotasks))
    net = 1.0 if task.est_net_mb > 0 else 0.0
    disk = 1.0 if task.est_disk_mb > 0 else 0.0
    return cores, net, disk, task.est_mem_mb


class TetrisPlacement(PlacementPolicy):
    """Tetris packing score over peak demands (Tetris2 when
    ``include_network=False``)."""

    def __init__(self, include_network: bool = True):
        self.include_network = include_network

    def place(self, ready, workers, now, job_policy) -> list[Assignment]:
        avails = [_Avail(w) for w in workers]
        pool = [(rs.jm, t) for rs in ready for t in rs.tasks]
        # process in job-priority order (the RM side still honors FIFO/EJF)
        pool.sort(key=lambda jt: (job_policy.job_rank(jt[0].job, now), jt[1].task_id))
        assignments: list[Assignment] = []
        for jm, task in pool:
            widx = self._best_worker(task, avails)
            if widx is None:
                continue
            self._commit(task, avails[widx])
            assignments.append(Assignment(jm, task, widx))
        return assignments

    def _best_worker(self, task: Task, avails) -> Optional[int]:
        cores, net, disk, mem = _peak_demand(task)
        if not self.include_network:
            net = 0.0
        best, best_score = None, float("-inf")
        for i in _candidates(task, avails):
            a = avails[i]
            if cores > a.cores or mem > a.mem:
                continue
            if net > a.net or disk > a.disk:
                continue
            cap_cores = a.worker.machine.spec.cores
            cap_mem = a.worker.memory_capacity_mb
            score = (
                (cores / cap_cores) * (a.cores / cap_cores)
                + (mem / cap_mem) * (a.mem / cap_mem)
                + net * a.net
                + disk * a.disk
            )
            if score > best_score:
                best_score, best = score, i
        return best

    def _commit(self, task: Task, a: _Avail) -> None:
        cores, net, disk, mem = _peak_demand(task)
        a.cores -= cores
        a.mem -= mem
        if self.include_network and net > 0:
            a.net = 0.0
        if disk > 0:
            a.disk = 0.0


class CapacityPlacement(PlacementPolicy):
    """Greedy most-available-resources placement (YARN Capacity style)."""

    def place(self, ready, workers, now, job_policy) -> list[Assignment]:
        avails = [_Avail(w) for w in workers]
        pool = [(rs.jm, t) for rs in ready for t in rs.tasks]
        pool.sort(key=lambda jt: (job_policy.job_rank(jt[0].job, now), jt[1].task_id))
        assignments: list[Assignment] = []
        for jm, task in pool:
            cores_needed = max(1.0, float(len(task.cpu_monotasks)))
            best, best_key = None, None
            for i in _candidates(task, avails):
                a = avails[i]
                if a.cores < cores_needed or a.mem < task.est_mem_mb:
                    continue
                key = (a.cores, a.mem)
                if best_key is None or key > best_key:
                    best_key, best = key, i
            if best is None:
                continue
            avails[best].cores -= cores_needed
            avails[best].mem -= task.est_mem_mb
            assignments.append(Assignment(jm, task, best))
        return assignments
