"""YarnSystem — drives a multi-job workload through YARN + executor apps.

The counterpart of :class:`~repro.scheduler.ursa.UrsaSystem` for the
baseline comparisons (Y+S, Y+T, Y+U): same submission API, same metrics
surface, different scheduling machinery underneath.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..cluster.cluster import Cluster
from ..dataflow.graph import OpGraph
from ..execution.job import Job, JobState
from ..rules import at_least, require
from .executor import ExecutorApp, ExecutorConfig
from .yarn import APP_STARTUP_DELAY, YarnConfig, YarnRM

__all__ = ["YarnSystem"]

AppFactory = Callable[[YarnRM, Cluster, Job, Callable], object]


class YarnSystem:
    """Submit jobs; each becomes an executor app on a shared YARN RM."""

    def __init__(
        self,
        cluster: Cluster,
        app_config: ExecutorConfig,
        yarn_config: YarnConfig | None = None,
        app_class: type = ExecutorApp,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.app_config = app_config
        self.yarn_config = yarn_config or YarnConfig()
        self.app_class = app_class
        self.rm = YarnRM(cluster, self.yarn_config)
        # a container no machine can host would keep the RM heartbeating
        # forever, so such a configuration is refused here
        specs = [m.spec for m in cluster.machines]
        cores = max(spec.cores for spec in specs) * self.yarn_config.cpu_subscription_ratio
        if app_config.container_cores > cores:
            raise ValueError(
                f"ExecutorConfig.container_cores must be at most {cores:g}, the largest "
                f"machine's advertised cores (cores × cpu_subscription_ratio), "
                f"got {app_config.container_cores!r}"
            )
        memory_mb = max(spec.memory_mb for spec in specs)
        if app_config.container_memory_mb > memory_mb:
            raise ValueError(
                f"ExecutorConfig.container_memory_mb must be at most {memory_mb:g}, the "
                f"largest machine's memory_mb, got {app_config.container_memory_mb!r}"
            )
        self.jobs: list[Job] = []
        self.apps: list = []
        self.completed_jobs: list[Job] = []
        self._next_job_id = 0

    # ------------------------------------------------------------------
    def submit(
        self,
        graph: OpGraph,
        requested_memory_mb: float = 0.0,
        at: Optional[float] = None,
        category: str = "generic",
    ) -> Job:
        if at is not None:
            require(at_least(self.sim.now), at=at)
        job = Job(
            self._next_job_id,
            graph,
            submit_time=at if at is not None else self.sim.now,
            requested_memory_mb=requested_memory_mb,
            category=category,
        )
        self._next_job_id += 1
        self.jobs.append(job)
        if at is None or at <= self.sim.now:
            self.sim.schedule(APP_STARTUP_DELAY, self._launch_app, job)
        else:
            self.sim.at(at + APP_STARTUP_DELAY, self._launch_app, job)
        return job

    def _launch_app(self, job: Job) -> None:
        job.state = JobState.ADMITTED
        job.admit_time = self.sim.now
        app = self.app_class(self.rm, self.cluster, job, self.app_config, self._app_done)
        self.apps.append(app)
        app.start()

    def _app_done(self, app) -> None:
        self.completed_jobs.append(app.job)

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        if until is not None:
            return self.sim.run(until=until, max_events=max_events)
        return self.sim.drain() if max_events is None else self.sim.run(max_events=max_events)

    @property
    def all_done(self) -> bool:
        return all(j.state is JobState.DONE for j in self.jobs)

    def makespan(self) -> float:
        if not self.jobs:
            return 0.0
        start = min(j.submit_time for j in self.jobs)
        end = max(j.finish_time or self.sim.now for j in self.jobs)
        return end - start

    def mean_jct(self) -> float:
        jcts = [j.jct for j in self.jobs if j.jct is not None]
        return sum(jcts) / len(jcts) if jcts else 0.0
