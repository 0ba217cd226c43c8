"""Monotask / Task / Stage structures (§4.1.3).

* A **monotask** performs one op (or a fused chain of async-connected CPU
  ops) on one output partition, using exactly one resource type.
* A **task** is a connected component of the monotask DAG after removing the
  in-edges of all network monotasks; its monotasks are collocated because
  network transfer is pull-based (the data lands where the task runs).
* A **stage** is the set of tasks generated from the same ops.

Planner output is immutable structure; runtime state (readiness, placement,
measured sizes) lives in small mutable fields the execution layer owns.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Optional

from .graph import DepType, Op, ResourceType

if TYPE_CHECKING:  # pragma: no cover
    from ..simcore.network import PullSet
    from .planner import PlannedJob

__all__ = [
    "Monotask", "Task", "Stage", "ShuffleBarrier", "MonotaskState", "TaskState",
]


class MonotaskState(enum.Enum):
    PENDING = "pending"    # intra-task parents not finished
    READY = "ready"        # sent (or sendable) to a worker queue
    QUEUED = "queued"      # waiting in a worker's per-resource queue
    RUNNING = "running"
    DONE = "done"


class TaskState(enum.Enum):
    BLOCKED = "blocked"    # some parent task unfinished
    READY = "ready"        # all parents done; awaiting placement
    PLACED = "placed"      # assigned to a worker
    DONE = "done"


class Monotask:
    """One unit of single-resource work."""

    __slots__ = (
        "mt_id", "ops", "rtype", "partition_index", "parent_blocks", "child_blocks",
        "intra_task_parents", "intra_task_children", "task", "state", "input_size_mb",
        "work_mb", "started_at", "handle", "finished_at", "sources", "expected_out_mb",
        "chain_outputs",
    )

    def __init__(self, mt_id: int, ops: list[Op], partition_index: int):
        # ``ops`` is an op group's list, non-empty and of one resource type;
        # the planner checks that once per group, not once per monotask
        self.mt_id = mt_id
        self.ops = ops
        self.rtype: ResourceType = ops[0].rtype
        self.partition_index = partition_index
        # dependency edges in blocks, one per op-group edge: a sync edge
        # shares the whole producer (consumer) group's tuple, an async edge
        # is a 1-tuple; ``parents``/``children`` flatten them on demand.
        # The planner sets both, sharing one block tuple across a group's
        # partitions when they all hold the same blocks
        self.parent_blocks: tuple[tuple["Monotask", ...], ...] = ()
        self.child_blocks: tuple[tuple["Monotask", ...], ...] = ()
        # the parents (children) in this monotask's own task, in ``parents``
        # (``children``) order; filled by the planner once tasks are formed
        self.intra_task_parents: tuple["Monotask", ...] = ()
        self.intra_task_children: tuple["Monotask", ...] = ()
        self.task: Optional["Task"] = None
        self.state = MonotaskState.PENDING
        # Resolved by the JM when the task becomes ready / the monotask runs.
        self.input_size_mb: float = 0.0
        self.work_mb: float = 0.0
        self.started_at: Optional[float] = None
        # while RUNNING: what its resource returned for it to cancel (a
        # processor's request entry or a fabric's transfer handle)
        self.handle: Any = None
        self.finished_at: Optional[float] = None
        # network: the (machine, size) PullSet resolved from metadata
        self.sources: Optional["PullSet"] = None
        # expected size of this monotask's final output partition
        self.expected_out_mb: float = 0.0
        # per-op expected output sizes along a fused CPU chain:
        # list of (DataHandle, size_mb) for every dataset the chain creates
        self.chain_outputs: Optional[list] = None

    @property
    def parents(self) -> list["Monotask"]:
        return _flatten(self.parent_blocks)

    @property
    def children(self) -> list["Monotask"]:
        return _flatten(self.child_blocks)

    @property
    def head_op(self) -> Op:
        return self.ops[0]

    @property
    def is_network(self) -> bool:
        return self.rtype is ResourceType.NETWORK

    @property
    def is_task_source(self) -> bool:
        """True if runnable as soon as the task is placed (no intra-task deps)."""
        return not self.intra_task_parents

    def __repr__(self) -> str:  # pragma: no cover
        names = "+".join(op.name for op in self.ops)
        return f"Monotask({self.mt_id}:{names}[{self.partition_index}], {self.rtype.value})"


def _flatten(blocks: tuple[tuple[Monotask, ...], ...]) -> list[Monotask]:
    if len(blocks) == 1:
        return list(blocks[0])  # one copy of the shared tuple
    return [m for block in blocks for m in block]


class Task:
    """A connected component of collocated monotasks."""

    __slots__ = (
        "task_id", "monotasks", "source_monotasks", "stage", "parent_barriers",
        "child_barriers", "async_parents", "async_children", "state", "worker",
        "locality", "est_cpu_mb", "est_net_mb", "est_disk_mb", "est_mem_mb", "sched_profile", "_input_mb",
        "remaining_parents", "remaining_monotasks", "ready_at", "placed_at",
        "finished_at",
    )

    def __init__(self, task_id: int, monotasks: tuple[Monotask, ...]):
        self.task_id = task_id
        self.monotasks = monotasks
        for m in monotasks:
            m.task = self
        # monotasks runnable as soon as the task is placed (no intra-task
        # parents), in ``monotasks`` order; filled by the planner
        self.source_monotasks: tuple[Monotask, ...] = ()
        self.stage: Optional["Stage"] = None
        # cross-task dependencies, filled by the planner: the shuffle
        # barriers this task waits on and feeds, and the parent/child tasks
        # linked one-to-one outside any barrier
        self.parent_barriers: tuple["ShuffleBarrier", ...] = ()
        self.child_barriers: tuple["ShuffleBarrier", ...] = ()
        self.async_parents: tuple["Task", ...] = ()
        self.async_children: tuple["Task", ...] = ()
        self.state = TaskState.BLOCKED
        self.worker: Optional[int] = None
        self.locality: Optional[int] = None  # hard placement constraint
        self.est_cpu_mb = 0.0
        self.est_net_mb = 0.0
        self.est_disk_mb = 0.0
        self.est_mem_mb = 0.0
        # ((cpu, net, disk), mem) profile the placement loop scores with;
        # the estimates above are frozen when the task becomes ready, so the
        # scheduler resolves this once per task instead of once per round
        self.sched_profile: Optional[tuple] = None
        self._input_mb: Optional[float] = None
        self.remaining_parents = 0
        self.remaining_monotasks = len(monotasks)
        self.ready_at: Optional[float] = None
        self.placed_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    @property
    def parents(self) -> set["Task"]:
        out = set(self.async_parents)
        for b in self.parent_barriers:
            out.update(b.producers)
        return out

    @property
    def children(self) -> set["Task"]:
        out = set(self.async_children)
        for b in self.child_barriers:
            out.update(b.consumers)
        return out

    @property
    def cpu_monotasks(self) -> list[Monotask]:
        return [m for m in self.monotasks if m.rtype is ResourceType.CPU]

    def input_size_mb(self) -> float:
        """Total bytes entering the task (drives size-ordered queueing and
        the memory estimate's `I(t)` in §4.2.1).

        Memoized: callers only ask once the JM has resolved the source
        monotasks' input sizes (at readiness), after which they are fixed —
        and the JM re-sums the whole ready set at every readiness wave.
        """
        v = self._input_mb
        if v is None:
            v = sum(m.input_size_mb for m in self.source_monotasks)
            self._input_mb = v
        return v

    def __repr__(self) -> str:  # pragma: no cover
        return f"Task({self.task_id}, |m|={len(self.monotasks)}, {self.state.value})"


class ShuffleBarrier:
    """One cross-task sync dependency, stored once: each of ``consumers``
    waits for every one of ``producers`` (distinct tasks).

    ``remaining`` counts unfinished producers.  When it reaches zero the
    barrier settles ``credit`` of each consumer's ``remaining_parents`` at
    once: the producer count it was last armed with — all of them at plan
    time, the unfinished ones when a fault recount re-arms it.
    """

    __slots__ = ("producers", "consumers", "remaining", "credit")

    def __init__(self, producers: tuple["Task", ...]):
        self.producers = producers
        self.consumers: list["Task"] = []
        self.remaining = len(producers)
        self.credit = len(producers)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ShuffleBarrier(|producers|={len(self.producers)}, "
            f"|consumers|={len(self.consumers)}, remaining={self.remaining})"
        )


class Stage:
    """Tasks generated from the same set of ops."""

    __slots__ = ("stage_id", "signature", "tasks", "name")

    def __init__(self, stage_id: int, signature: frozenset, tasks: list[Task], name: str):
        self.stage_id = stage_id
        self.signature = signature
        self.tasks = tasks
        self.name = name
        for t in tasks:
            t.stage = self

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Stage({self.stage_id}:{self.name}, tasks={len(self.tasks)})"
