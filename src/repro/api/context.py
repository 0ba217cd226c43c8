"""UrsaContext — the user-facing entry point (like a SparkContext).

Couples a simulated cluster with an UrsaSystem and exposes dataset
construction::

    ctx = UrsaContext()
    counts = (
        ctx.parallelize(words, partitions=8)
           .map(lambda w: (w, 1))
           .reduce_by_key(lambda a, b: a + b, partitions=4)
           .collect()
    )

Each action (collect/count/...) runs the accumulated lineage's UDFs on the
real data (:func:`repro.api.payloads.evaluate`), submits the lineage as one
job carrying the sizes they measured, drives the simulation until that job
finishes, and returns the real results.  The simulated cluster sees sizes
only; its scheduler and timing are what the job would get on Ursa.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..cluster.cluster import Cluster
from ..cluster.spec import ClusterSpec
from ..dataflow.graph import OpGraph
from ..execution.jobmanager import JobManager
from ..rules import POS_INT, require
from ..scheduler.ursa import UrsaConfig, UrsaSystem
from . import payloads
from .dataset import Dataset

__all__ = ["UrsaContext", "Broadcast"]


class Broadcast:
    """A read-only value shipped to every task (captured in UDF closures).

    In the simulation the value is process-local, so broadcasting is free;
    the wrapper exists so application code reads like the real API.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


class _SessionSystem(UrsaSystem):
    """An UrsaSystem that never retires a job: a session reads each action's
    results back from its JobManager, and callers may inspect the plan."""

    def _retire(self, jm: JobManager) -> None:
        pass


class UrsaContext:
    """Session object: cluster + scheduler + job submission for datasets."""

    def __init__(
        self,
        cluster_spec: Optional[ClusterSpec] = None,
        config: Optional[UrsaConfig] = None,
        default_memory_mb: float = 4 * 1024.0,
    ):
        self.cluster = Cluster(cluster_spec or ClusterSpec.small())
        self.system = _SessionSystem(self.cluster, config)
        self.default_memory_mb = default_memory_mb
        self._job_counter = 0

    # ------------------------------------------------------------------
    # dataset construction
    # ------------------------------------------------------------------
    def parallelize(
        self,
        items: Iterable[Any],
        partitions: int = 4,
        name: str = "input",
        graph: Optional[OpGraph] = None,
    ) -> Dataset:
        """Distribute ``items`` over ``partitions`` partitions.

        Pass an existing ``graph`` to build several inputs into one job
        (required for joins: one job = one OpGraph).
        """
        require(POS_INT, partitions=partitions)
        data = list(items)
        chunks: list[list[Any]] = [[] for _ in range(partitions)]
        for i, item in enumerate(data):
            chunks[i % partitions].append(item)
        if graph is None:
            graph = OpGraph(name)
        handle = graph.create_data(partitions, name)
        payloads.set_input(handle, chunks)
        return Dataset(self, graph, handle, creator=None)

    def broadcast(self, value: Any) -> Broadcast:
        return Broadcast(value)

    # ------------------------------------------------------------------
    # job execution (called by Dataset actions)
    # ------------------------------------------------------------------
    def run_graph(self, graph: OpGraph, memory_mb: Optional[float] = None):
        """Evaluate the graph on its real data, submit it as a job, run it
        to completion, return its JM."""
        payloads.evaluate(graph)
        job = self.system.submit(
            graph, requested_memory_mb=memory_mb or self.default_memory_mb
        )
        self.system.run(max_events=20_000_000)
        if not job.done:  # pragma: no cover - defensive
            raise RuntimeError(f"job {graph.name!r} did not finish")
        return self.system.jms[job.job_id]

    def fetch_partitions(self, jm: JobManager, handle) -> list[Any]:
        """The real partitions of a dataset of ``jm``'s job, once it ran."""
        return payloads.partitions(handle)
