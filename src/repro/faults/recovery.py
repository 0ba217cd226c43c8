"""Lineage-based restart-set computation for worker loss.

When a worker dies, three kinds of work are lost:

1. tasks **placed on the dead worker** (queued/running monotasks gone);
2. tasks elsewhere whose *resolved inputs* referenced shard outputs that
   lived on the dead worker (their pull sources / cached sizes are stale);
3. **completed upstream tasks** whose output partitions died with the
   worker while downstream consumers still need them — these must
   re-execute, exactly like Spark-style lineage recovery.  A partition an
   earlier loss dropped while all its readers had finished counts too once
   one of those readers restarts: nothing re-produced it in between.

:func:`restart_set` computes the closure of all three from the per-job
metadata drop list, distinguishing *charged* restarts (started or finished
work was lost — they count against the retry budget) from free ones (the
task was merely READY; nothing ran yet).

Damage is tracked at dataset granularity, not per partition: a network
monotask pulls a shard of *every* partition of its upstream dataset, so one
lost partition taints all of its readers; for disk/CPU readers this is
conservative (a reader of an undamaged sibling partition is restarted too),
which trades a little redundant re-execution for a closure that is simple
and deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..dataflow.monotask import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from ..execution.jobmanager import JobManager

__all__ = ["lineage_maps", "restart_set"]


def lineage_maps(plan) -> tuple[dict[tuple[int, int], Task], dict[int, list[Task]]]:
    """Derive the job's data lineage from its monotask plan.

    Returns ``(producers, readers)`` where ``producers`` maps each output
    partition key ``(data_id, partition_index)`` to the task that produces
    it, and ``readers`` maps each ``data_id`` to the ordered, de-duplicated
    list of tasks that read it (external job inputs appear here too; they
    have no producer entry — durable storage never needs re-execution).
    """
    producers: dict[tuple[int, int], Task] = {}
    readers: dict[int, dict[Task, None]] = {}
    for task in plan.tasks:
        for mt in task.monotasks:
            for op in mt.ops:
                if op.output is not None:
                    producers[(op.output.data_id, mt.partition_index)] = task
                for handle in op.reads:
                    readers.setdefault(handle.data_id, {})[task] = None
    return producers, {did: list(ts) for did, ts in readers.items()}


def restart_set(
    jm: "JobManager", worker: int, dropped: list[tuple[int, int]]
) -> tuple[list[Task], set[Task]]:
    """Tasks of ``jm``'s job that must re-execute after ``worker`` died.

    ``dropped`` is the sorted ``(data_id, partition)`` list returned by
    ``MetadataStore.invalidate_machine``.  Returns ``(tasks, charged)``:
    ``tasks`` sorted by task id for deterministic rewind order, ``charged``
    the subset whose restart consumes a retry attempt (lost started or
    completed work — PLACED anywhere, or DONE producers of dropped data).
    READY tasks with stale inputs restart for free: placement never
    happened, so no work was lost.
    """
    producers, readers = lineage_maps(jm.plan)
    damaged_ids: dict[int, None] = {}
    for did, _p in dropped:
        damaged_ids[did] = None

    restart: dict[Task, None] = {}
    charged: set[Task] = set()
    worklist: list[Task] = []

    def push(task: Task, charge: bool) -> None:
        if charge:
            charged.add(task)
        if task not in restart:
            restart[task] = None
            worklist.append(task)

    # seed 1: tasks placed on the dead worker — their queued monotasks were
    # drained and their running ones aborted; anything they had done is gone
    for task in jm.plan.tasks:
        if task.state is TaskState.PLACED and task.worker == worker:
            push(task, charge=True)

    # seed 2: readers of damaged datasets whose inputs are already resolved
    # (READY: stale sizes/sources, free; PLACED elsewhere: mid-flight pulls
    # from a dead source, charged)
    for did in sorted(damaged_ids):
        for task in readers.get(did, ()):
            if task.state is TaskState.READY:
                push(task, charge=False)
            elif task.state is TaskState.PLACED:
                push(task, charge=True)

    # seed 3: a dropped partition some BLOCKED task will eventually read —
    # its DONE producer must re-execute now (the consumer has not resolved
    # inputs yet, so the producer alone restarts)
    for did, part in dropped:
        producer = producers.get((did, part))
        if producer is None or producer.state is not TaskState.DONE:
            continue
        for task in readers.get(did, ()):
            if task.state is TaskState.BLOCKED:
                push(producer, charge=True)
                break

    # closure: every restarting task re-resolves its inputs from metadata at
    # re-ready time, so every lost partition of a dataset it reads must be
    # re-produced; DONE producers join the set (a producer that was PLACED
    # on the dead worker is already in seed 1 — all of a task's outputs
    # live where it ran).  "Lost" is a DONE producer's partition missing
    # from the store: dropped by this failure, or by an earlier one whose
    # readers had all finished then, so nothing re-produced it
    find = jm.metadata.find
    while worklist:
        task = worklist.pop()
        for mt in task.monotasks:
            for op in mt.ops:
                for handle in op.reads:
                    did = handle.data_id
                    for part in range(handle.num_partitions):
                        producer = producers.get((did, part))
                        if (
                            producer is not None
                            and producer.state is TaskState.DONE
                            and find(handle, part) is None
                        ):
                            push(producer, charge=True)

    ordered = sorted(restart, key=lambda t: t.task_id)
    return ordered, charged
