"""Resource-usage estimation — a duty of the JM (§4.2.1).

* Network / disk monotask usage = size of its input data.
* CPU monotask usage = its input data size as well (footnote 3: complexity
  differences are absorbed by the scheduler's processing-rate monitoring).
* Task usage = sum over its monotasks.
* Memory: ``mem(t) = min(r · M(j), m2i(t) · I(t))`` where ``M(j)`` is the
  user-requested job memory, ``r`` is the share of this task's input among
  the job's currently-ready tasks, and ``m2i`` is the (per-operation)
  memory-to-input ratio.

The module also propagates sizes statically through an OpGraph (used to
initialize SRJF's remaining-work vector, the stand-in for "historical
information" on recurring jobs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..dataflow.graph import OpGraph, ResourceType
from ..dataflow.monotask import Monotask, Task

if TYPE_CHECKING:  # pragma: no cover
    from ..dataflow.planner import JobShape
    from .jobmanager import JobManager

__all__ = ["estimate_task_usage", "estimate_task_memory", "static_size_totals", "task_m2i"]


def estimate_task_usage(task: Task) -> None:
    """Fill est_cpu/net/disk from the already-resolved monotask input sizes."""
    cpu = net = disk = 0.0
    for m in task.monotasks:
        if m.rtype is ResourceType.CPU:
            cpu += m.input_size_mb
        elif m.rtype is ResourceType.NETWORK:
            net += m.input_size_mb
        else:
            disk += m.input_size_mb
    task.est_cpu_mb = cpu
    task.est_net_mb = net
    task.est_disk_mb = disk


def task_m2i(task: Task) -> float:
    """Memory-to-input ratio of a task: that of its CPU op chain (the op that
    actually holds data in memory), falling back to the max over all ops."""
    cpu_mts = task.cpu_monotasks
    if cpu_mts:
        return max(op.m2i for op in cpu_mts[0].ops)
    return max((op.m2i for m in task.monotasks for op in m.ops), default=1.0)


def estimate_task_memory(
    task: Task, job_requested_mb: float, ready_input_total_mb: float
) -> float:
    """§4.2.1: ``min(r × M(j), m2i(t) × I(t))``, never below a small floor so
    zero-input barrier tasks still get working memory."""
    input_mb = task.input_size_mb()
    if ready_input_total_mb > 0:
        ratio = input_mb / ready_input_total_mb
    else:
        ratio = 1.0
    estimate = min(ratio * job_requested_mb, task_m2i(task) * input_mb)
    return max(estimate, 1.0)


def static_size_totals(graph: OpGraph, shape: "JobShape") -> dict[ResourceType, float]:
    """Propagate input sizes through the graph, in the topological order of
    its :class:`~repro.dataflow.planner.JobShape`, to estimate per-resource
    total work (MB) for a whole job, before anything runs."""
    sizes: dict[int, float] = {}  # data_id -> total MB
    for d in graph.datasets:
        if d.is_input:
            sizes[d.data_id] = sum(d.sizes)
    totals = {r: 0.0 for r in (ResourceType.CPU, ResourceType.NETWORK, ResourceType.DISK)}
    ops = graph.ops
    for op_id in shape.order:
        op = ops[op_id]
        in_total = sum(sizes.get(h.data_id, 0.0) for h in op.reads)
        totals[op.rtype] += in_total
        out = op.output
        if out is None:
            continue
        if op.size_fn is not None:
            p = op.parallelism
            per_partition = in_total / max(1, p)
            out_total = sum(op.size_fn(i, per_partition) for i in range(p))
        else:
            out_total = in_total
        sizes[out.data_id] = out_total
    return totals
