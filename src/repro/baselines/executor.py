"""Executor-model applications (Spark-like and Tez-like) on the YARN RM.

An app hosts the *same* execution layer as Ursa (a JobManager over the
monotask plan) but schedules it the executor way:

* tasks occupy a whole **slot** (one container core) from their first phase
  to their last — the core stays reserved while the task fetches over the
  network, which is the §2 under-utilization pattern;
* container **memory** is reserved wholesale for the container's lifetime;
  actual task memory usage (UE_mem's Z) is typically far smaller;
* container counts follow **dynamic allocation** (Spark: target = backlog /
  slots, release after an idle timeout) or **hold-until-done** reuse (Tez);
* everything waits on RM **heartbeats** for new containers.
"""

from __future__ import annotations

from typing import Optional

from ..cluster.cluster import Cluster
from ..dataflow.monotask import Monotask, MonotaskState, Task
from ..execution.job import Job
from ..execution.jobmanager import JobManager
from ..rules import FLAG, NONNEG, POS, POS_INT, ruled, ruled_dataclass
from .containers import Container
from .yarn import YarnRM

__all__ = ["ExecutorConfig", "ExecutorApp", "spark_config", "tez_config"]


@ruled_dataclass()
class ExecutorConfig:
    """Sizing and lifecycle policy of one app's containers."""

    container_cores: int = ruled(POS_INT, 4)
    container_memory_mb: float = ruled(POS, 8 * 1024.0)
    idle_timeout: float = ruled(NONNEG, 2.0)          # release idle containers after this
    hold_until_job_end: bool = ruled(FLAG, False)     # Tez-style reuse: never shrink
    # Tez fetches shuffle input with lower parallelism (no pipelined
    # fetch-ahead); modelled as a single sequential phase either way.


def spark_config(**overrides) -> ExecutorConfig:
    """§5.1.1's best Spark setting: 4-core / 8 GB executors, dynamic
    allocation with a 2 s idle timeout."""
    defaults = dict(
        container_cores=4,
        container_memory_mb=8 * 1024.0,
        idle_timeout=2.0,
    )
    defaults.update(overrides)
    return ExecutorConfig(**defaults)


def tez_config(**overrides) -> ExecutorConfig:
    """§5.1.1's Tez setting: 2-core / 6 GB containers with reuse enabled
    (containers are held for the whole job)."""
    defaults = dict(
        container_cores=2,
        container_memory_mb=6 * 1024.0,
        idle_timeout=0.0,
        hold_until_job_end=True,
    )
    defaults.update(overrides)
    return ExecutorConfig(**defaults)


class ExecutorApp:
    """One job's driver + executors (implements both the RM's YarnApp
    protocol and the execution layer's SchedulerBackend)."""

    def __init__(self, rm: YarnRM, cluster: Cluster, job: Job, config: ExecutorConfig, on_done=None):
        self.rm = rm
        self.cluster = cluster
        self.sim = cluster.sim
        self.job = job
        self.config = config
        self.on_done = on_done
        self.app_id = job.job_id
        self.container_cores = config.container_cores
        self.container_memory_mb = config.container_memory_mb

        self.jm = JobManager(self.sim, cluster, job, self, reserve_per_task=False)
        self.containers: dict[int, Container] = {}
        self.pending: list[Task] = []
        self._task_container: dict[int, Container] = {}
        self._finished = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Driver is up: surface the job's root stages and start asking."""
        self.jm.start()
        self.rm.register_app(self)

    # -- YarnApp protocol -------------------------------------------------
    def container_target(self) -> int:
        backlog = len(self.pending) + len(self._task_container)
        want = -(-backlog // self.config.container_cores)  # ceil
        if self.config.hold_until_job_end:
            want = max(want, len(self.containers))
        return want

    def num_containers(self) -> int:
        return len(self.containers)

    @property
    def finished(self) -> bool:
        return self._finished

    def grant_container(self, container: Container) -> None:
        self.containers[container.cid] = container
        # dispatch via the event loop so that all containers granted at the
        # same heartbeat are visible before tasks are spread over them
        self.sim.call_soon(self._dispatch)
        self.sim.call_soon(self._arm_idle_check, container)

    # -- SchedulerBackend protocol -----------------------------------------
    def on_tasks_ready(self, jm: JobManager, tasks: list[Task]) -> None:
        self.pending.extend(tasks)
        self._dispatch()

    def enqueue_monotask(self, jm: JobManager, mt: Monotask) -> None:
        # phases run back-to-back inside the slot; no per-resource queueing
        mt.state = MonotaskState.QUEUED
        jm.run_monotask(mt, self._phase_done)

    def on_task_complete(self, jm: JobManager, task: Task) -> None:
        container = self._task_container.pop(task.task_id, None)
        if container is not None and not container.released:
            container.free_slot(self.sim.now)
            self._arm_idle_check(container)
        self._dispatch()

    def on_job_complete(self, jm: JobManager) -> None:
        self._finished = True
        for container in list(self.containers.values()):
            self.rm.release_container(container)
        self.containers.clear()
        self.rm.unregister_app(self)
        if self.on_done is not None:
            self.on_done(self)

    # ------------------------------------------------------------------
    def _phase_done(self, mt: Monotask) -> None:
        """Individual phase completions need no slot bookkeeping."""

    # MonoSpark (Y+U) admits more tasks per container than cores so fetch
    # and compute can overlap inside its per-resource queues
    slot_multiplier = 1

    def _dispatch(self) -> None:
        # round-robin one task per container per pass so a freshly-granted
        # container does not absorb the whole backlog
        while self.pending:
            progressed = False
            for container in list(self.containers.values()):
                if not self.pending:
                    break
                if container.released:
                    continue
                if container.used_slots >= container.slots * self.slot_multiplier:
                    continue
                task = self._next_task_for(container)
                if task is None:
                    continue
                self.pending.remove(task)
                container.take_slot(self.sim.now)
                self._task_container[task.task_id] = container
                self.jm.place_task(task, container.machine_index)
                progressed = True
            if not progressed:
                break

    def _next_task_for(self, container: Container) -> Optional[Task]:
        # honor hard locality (cached partitions); otherwise FIFO
        for task in self.pending:
            if task.locality is None or task.locality == container.machine_index:
                return task
        # locality-constrained tasks fall back to any slot after waiting:
        # Spark's locality wait is not modelled beyond one dispatch pass
        return self.pending[0] if self.pending else None

    # -- dynamic-allocation idle release ------------------------------------
    def _arm_idle_check(self, container: Container) -> None:
        if self.config.hold_until_job_end:
            return
        if not container.idle or container.released:
            return
        self.sim.schedule(self.config.idle_timeout, self._idle_check, container)

    def _idle_check(self, container: Container) -> None:
        if container.released or not container.idle or self._finished:
            return
        idle_for = self.sim.now - (container.idle_since or self.sim.now)
        if idle_for + 1e-9 >= self.config.idle_timeout:
            self.containers.pop(container.cid, None)
            self.rm.release_container(container)
