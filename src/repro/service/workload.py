"""Service-mode job types: small interactive jobs, sized per scale.

Batch experiments submit a handful of heavyweight jobs; a multi-tenant
service handles a stream of much smaller requests.  Each arrival maps to
a short dataflow job whose shape depends on its type:

* **type 2 (small)** — two stages (scan → shuffle/aggregate), the
  interactive-query profile; requests a quarter of a machine's memory.
* **type 1 (large)** — three stages (scan → shuffle → shuffle), twice the
  data; requests half of one machine's memory — so a dozen-odd concurrent
  jobs saturate the admission gate and overload queues, not just CPU.

Sizes derive from the :class:`~repro.experiments.common.Scale` — per-task
input follows ``scale.partition_mb`` and stage width follows the cluster
core count — so the same sweep stays proportionate from ``tiny`` to
``paper``.  A :class:`ServiceJobType` holds one type's validated spec and,
from its first arrival on, the :class:`~repro.dataflow.planner.JobShape`
every arrival of the type plans with.  An arrival then pays only for its
sizes: a size jitter (±25 %) and the partition skew, each from a
seed-derived generator keyed on the arrival index, so a job, like the
arrival schedule, is a pure function of ``(scale, arrival, seed)``.
"""

from __future__ import annotations

from typing import Optional

from ..dataflow.graph import OpGraph
from ..dataflow.planner import JobShape
from ..simcore.rng import derive_rng
from ..workloads.spec import JobSpec, StageSpec
from .arrivals import Arrival

__all__ = ["ServiceJobType", "mean_job_cpu_mb", "mean_request_mb"]

#: memory request as a fraction of one machine's memory, per job type
_MEM_FRACTION = {1: 0.5, 2: 0.25}
#: skew applied to partition and shuffle-shard sizes
_SKEW_SIGMA = 0.3


def _widths(total_cores: int) -> dict[int, int]:
    return {1: max(8, total_cores // 4), 2: max(4, total_cores // 8)}


class ServiceJobType:
    """One job type at one scale: a size-only :class:`JobSpec` at the mean
    size, validated once, and the shape its arrivals plan with."""

    __slots__ = ("spec", "shape", "_partition_mb", "_width")

    def __init__(self, sc, job_type: int):
        self._partition_mb = sc.partition_mb
        self._width = width = _widths(sc.cluster.total_cores)[job_type]

        def stage(**kw) -> StageSpec:
            return StageSpec(parallelism=width, cpu_factor=1.0, skew_sigma=_SKEW_SIGMA,
                             m2i=1.1, **kw)

        stages = [
            # request payloads arrive in memory
            stage(source_mb=sc.partition_mb * width, from_disk=False, expand=1.0),
            stage(shuffle_parents=(0,), expand=0.5),
        ]
        if job_type == 1:
            stages.append(stage(shuffle_parents=(1,), expand=0.5))
        self.spec = JobSpec(
            name=f"svc_type{job_type}",
            stages=stages,
            requested_memory_mb=_MEM_FRACTION[job_type] * sc.cluster.machine.memory_mb,
            memory_accuracy=0.9,
            category="service",
        )
        self.spec.validate()
        #: compiled from the type's first built graph
        self.shape: Optional[JobShape] = None

    def build(self, arrival: Arrival, seed: int) -> tuple[OpGraph, JobShape]:
        """The arrival's sized graph and the type's shape to plan it with."""
        rng = derive_rng(seed, "service_job", arrival.index)
        jitter = 0.75 + 0.5 * float(rng.random())  # size factor in [0.75, 1.25)
        graph = self.spec.build_graph(
            derive_rng(seed, "service_build", arrival.index),
            name=f"svc_t{arrival.tenant}_{arrival.index}",
            # per-task MB times width, in this order: the sizes' float bits
            source_mb=(self._partition_mb * jitter * self._width,),
        )
        if self.shape is None:
            self.shape = JobShape(graph)
        return graph, self.shape


def mean_job_cpu_mb(sc, large_fraction: float = 0.3) -> float:
    """Expected CPU MB per job under the type mix (jitter averages to 1).

    Stage CPU work ≈ its input volume: the source stage processes
    ``source_mb``; each shuffle stage processes the previous stage's
    output (``expand`` halves it per hop).
    """
    w = _widths(sc.cluster.total_cores)
    per = {}
    for jt, width in w.items():
        src = sc.partition_mb * width
        stages = src + src * 1.0  # scan + first shuffle input (expand applies to output)
        if jt == 1:
            stages += src * 0.5  # third stage reads the halved intermediate
        per[jt] = stages
    return large_fraction * per[1] + (1.0 - large_fraction) * per[2]


def mean_request_mb(sc, large_fraction: float = 0.3) -> float:
    """Expected admission-memory request per job under the type mix."""
    m = sc.cluster.machine.memory_mb
    return large_fraction * _MEM_FRACTION[1] * m + (1.0 - large_fraction) * _MEM_FRACTION[2] * m
