"""Compiling an OpGraph into monotasks, tasks and stages (§4.1.3).

Steps, exactly as the paper describes:

1. **Collapse** connected subgraphs of CPU ops linked by async dependencies
   into one (fused) CPU op group, "for scalability in scheduling monotasks".
   After this, each task contains at most one CPU monotask.
2. **Generate monotasks** — one per output partition of each op group.  A
   sync dependency between two ops becomes a fully-connected bipartite
   dependency between their monotasks; an async dependency becomes
   one-to-one.  The bipartite dependency is logical: it is stored once per
   op-group edge, each consumer holding the producer group's shared tuple
   as one parent block (and each producer the consumer group's as one
   child block), so planning is linear in monotasks plus op-group edges.
3. **Form tasks** — remove the in-edges of all network monotasks; each
   remaining connected component is a task (its monotasks are collocated
   because transfers are pull-based).
4. **Form stages** — tasks whose monotasks come from the same ops form a
   stage; task-level dependencies are derived from the severed edges: one
   shared :class:`~repro.dataflow.monotask.ShuffleBarrier` per cross-task
   sync edge, one-to-one parent tasks for the rest.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from .graph import DepType, GraphError, Op, OpGraph, ResourceType
from .monotask import Monotask, ShuffleBarrier, Stage, Task

__all__ = ["PlannedJob", "plan_job"]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


class _OpGroup:
    """A fused group of CPU ops (or a singleton non-CPU op)."""

    __slots__ = ("group_id", "ops", "rtype", "in_edges", "out_edges")

    def __init__(self, group_id: int, ops: list[Op]):
        self.group_id = group_id
        self.ops = ops
        self.rtype = ops[0].rtype
        self.in_edges: list[tuple["_OpGroup", DepType]] = []
        self.out_edges: list[tuple["_OpGroup", DepType]] = []

    @property
    def parallelism(self) -> int:
        return self.ops[-1].parallelism

    @property
    def name(self) -> str:
        return "+".join(op.name for op in self.ops)


class PlannedJob:
    """The output of :func:`plan_job`: the monotask DAG, tasks and stages."""

    def __init__(
        self,
        graph: OpGraph,
        monotasks: list[Monotask],
        tasks: list[Task],
        stages: list[Stage],
        barriers: list[ShuffleBarrier],
    ):
        self.graph = graph
        self.monotasks = monotasks
        self.tasks = tasks
        self.stages = stages
        self.barriers = barriers

    @property
    def root_tasks(self) -> list[Task]:
        return [t for t in self.tasks if not t.parent_barriers and not t.async_parents]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"PlannedJob({self.graph.name}: {len(self.monotasks)} monotasks, "
            f"{len(self.tasks)} tasks, {len(self.stages)} stages)"
        )


def plan_job(graph: OpGraph) -> PlannedJob:
    """Compile ``graph`` into its monotask DAG, tasks, and stages."""
    graph.validate()
    groups = _collapse_cpu_chains(graph)
    monotasks, members = _generate_monotasks(groups)
    tasks = _form_tasks(monotasks, groups, members)
    stages = _form_stages(tasks)
    barriers = _wire_task_dependencies(tasks, members)
    return PlannedJob(graph, monotasks, tasks, stages, barriers)


# ----------------------------------------------------------------------
# step 1: collapse async-connected CPU subgraphs
# ----------------------------------------------------------------------
def _collapse_cpu_chains(graph: OpGraph) -> list[_OpGroup]:
    uf = _UnionFind(len(graph.ops))
    for op in graph.ops:
        if op.rtype is not ResourceType.CPU:
            continue
        for child, dep in op.out_edges:
            if child.rtype is ResourceType.CPU and dep is DepType.ASYNC:
                uf.union(op.op_id, child.op_id)

    members: dict[int, list[Op]] = defaultdict(list)
    for op in graph.ops:
        members[uf.find(op.op_id)].append(op)

    # Fused ops execute in an order consistent with intra-group edges; the
    # global topological order restricted to the group provides it.
    topo_pos = {op.op_id: i for i, op in enumerate(graph.topological_order())}
    groups: list[_OpGroup] = []
    group_of: dict[int, _OpGroup] = {}
    for root in sorted(members, key=lambda r: min(topo_pos[o.op_id] for o in members[r])):
        ops = sorted(members[root], key=lambda o: topo_pos[o.op_id])
        parallelism = {op.parallelism for op in ops}
        if len(parallelism) != 1:
            raise GraphError(
                f"cannot fuse CPU ops {[o.name for o in ops]}: differing parallelism"
            )
        g = _OpGroup(len(groups), ops)
        groups.append(g)
        for op in ops:
            group_of[op.op_id] = g

    for op in graph.ops:
        g1 = group_of[op.op_id]
        for child, dep in op.out_edges:
            g2 = group_of[child.op_id]
            if g1 is g2:
                continue
            g1.out_edges.append((g2, dep))
            g2.in_edges.append((g1, dep))
    return groups


# ----------------------------------------------------------------------
# step 2: monotask generation + dependency wiring
# ----------------------------------------------------------------------
def _generate_monotasks(
    groups: list[_OpGroup],
) -> tuple[list[Monotask], list[tuple[Monotask, ...]]]:
    """Every group's monotasks (one shared tuple per group, indexed by
    group id) with their dependency blocks wired."""
    monotasks: list[Monotask] = []
    members: list[tuple[Monotask, ...]] = []
    for g in groups:
        base = len(monotasks)
        mts = tuple(Monotask(base + i, g.ops, i) for i in range(g.parallelism))
        monotasks.extend(mts)
        members.append(mts)

    for g in groups:
        srcs = members[g.group_id]
        for child_group, dep in g.out_edges:
            dsts = members[child_group.group_id]
            if dep is DepType.SYNC:
                # bipartite, stored once: each side holds the other's tuple
                for s in srcs:
                    s.child_blocks.append(dsts)
                for d in dsts:
                    d.parent_blocks.append(srcs)
            else:
                if len(srcs) != len(dsts):  # pragma: no cover - validated earlier
                    raise GraphError(
                        f"async edge {g.name!r}->{child_group.name!r} parallelism mismatch"
                    )
                for s, d in zip(srcs, dsts):
                    s.child_blocks.append((d,))
                    d.parent_blocks.append((s,))
    return monotasks, members


# ----------------------------------------------------------------------
# step 3: connected components after cutting network in-edges
# ----------------------------------------------------------------------
def _form_tasks(
    monotasks: list[Monotask],
    groups: list[_OpGroup],
    members: list[tuple[Monotask, ...]],
) -> list[Task]:
    uf = _UnionFind(len(monotasks))  # a monotask's mt_id is its index
    network = ResourceType.NETWORK
    for g in groups:
        srcs = members[g.group_id]
        for child_group, dep in g.out_edges:
            if child_group.rtype is network:
                continue  # severed: in-edges of network monotasks
            dsts = members[child_group.group_id]
            if dep is DepType.SYNC:
                # a barrier into a non-network group joins both groups whole
                root = srcs[0].mt_id
                for m in srcs[1:] + dsts:
                    uf.union(root, m.mt_id)
            else:
                for s, d in zip(srcs, dsts):
                    uf.union(s.mt_id, d.mt_id)

    # components first appear in order of their lowest mt_id, and collect
    # their monotasks in mt_id order
    components: dict[int, list[Monotask]] = defaultdict(list)
    for m in monotasks:
        components[uf.find(m.mt_id)].append(m)
    return [Task(i, mts) for i, mts in enumerate(components.values())]


# ----------------------------------------------------------------------
# step 4: stages + task-level dependencies
# ----------------------------------------------------------------------
def _form_stages(tasks: list[Task]) -> list[Stage]:
    by_signature: dict[frozenset, list[Task]] = defaultdict(list)
    for t in tasks:
        sig = frozenset(op.op_id for m in t.monotasks for op in m.ops)
        by_signature[sig].append(t)

    stages: list[Stage] = []
    for sig in sorted(by_signature, key=lambda s: min(t.task_id for t in by_signature[s])):
        group = by_signature[sig]
        name = "+".join(
            sorted({op.name for m in group[0].monotasks for op in m.ops})
        )
        stages.append(Stage(len(stages), sig, group, name))
    return stages


def _wire_task_dependencies(
    tasks: list[Task], members: list[tuple[Monotask, ...]]
) -> list[ShuffleBarrier]:
    """Derive the task-level dependencies from the severed monotask edges,
    and in the same walk each monotask's intra-task parents and children
    and each task's source monotasks.

    A cross-task sync block becomes one :class:`ShuffleBarrier` per distinct
    producer-task set, shared by every consumer task; a cross-task 1-tuple
    block is a one-to-one parent task.  Each parent task is counted once:
    a group's monotasks span all tasks of its connected component (index
    by index, or one task when a sync edge joined the component), so a
    consumer's distinct barriers are disjoint, and pulling the same
    producers twice (a self-join) finds the same barrier.  A one-to-one
    parent that one of the consumer's barriers already holds is dropped.
    Returns the barriers."""
    # each multi-monotask group split by task, once per group
    split: dict[int, dict[Task, tuple[Monotask, ...]]] = {}
    for mts in members:
        if len(mts) > 1:
            by_task: dict[Task, list[Monotask]] = defaultdict(list)
            for m in mts:
                by_task[m.task].append(m)  # type: ignore[index]
            split[id(mts)] = {
                t: mts if len(ms) == len(mts) else tuple(ms)
                for t, ms in by_task.items()
            }
    group_tasks: dict[int, frozenset] = {}
    barriers: dict[frozenset, ShuffleBarrier] = {}
    child_barriers: dict[Task, list[ShuffleBarrier]] = defaultdict(list)
    async_children: dict[Task, list[Task]] = defaultdict(list)

    for t in tasks:
        sources: list[Monotask] = []
        waits: dict[frozenset, ShuffleBarrier] = {}
        singles: dict[Task, None] = {}
        for m in t.monotasks:
            m.intra_task_parents = _intra(m.parent_blocks, t, split)
            m.intra_task_children = _intra(m.child_blocks, t, split)
            if not m.intra_task_parents:
                sources.append(m)
            for block in m.parent_blocks:
                if len(block) == 1:
                    pt = block[0].task
                    if pt is not t:
                        singles[pt] = None  # type: ignore[index]
                    continue
                by_task = split[id(block)]
                if t in by_task:
                    if len(by_task) == 1:
                        continue  # wholly intra-task
                    # the producers share this task's component: wait on
                    # the others (the task graph is then cyclic, so no
                    # runnable plan builds one)
                    key = frozenset(by_task).difference((t,))
                else:
                    key = group_tasks.get(id(block))
                    if key is None:
                        key = group_tasks[id(block)] = frozenset(by_task)
                if key not in waits:
                    b = barriers.get(key)
                    if b is None:
                        b = barriers[key] = ShuffleBarrier(
                            tuple(p for p in by_task if p is not t)
                        )
                    b.consumers.append(t)
                    waits[key] = b
        t.source_monotasks = tuple(sources)
        t.parent_barriers = tuple(waits.values())
        t.async_parents = tuple(
            p for p in singles if not any(p in key for key in waits)
        )
        for p in t.async_parents:
            async_children[p].append(t)
        t.remaining_parents = (
            sum(b.credit for b in t.parent_barriers) + len(t.async_parents)
        )

    for b in barriers.values():
        for p in b.producers:
            child_barriers[p].append(b)
    for t, bs in child_barriers.items():
        t.child_barriers = tuple(bs)
    for t, cs in async_children.items():
        t.async_children = tuple(cs)
    return list(barriers.values())


def _intra(
    blocks: list[tuple[Monotask, ...]],
    task: Task,
    split: dict[int, dict[Task, tuple[Monotask, ...]]],
) -> tuple[Monotask, ...]:
    """The members of ``blocks`` that lie in ``task``, in block order; a
    single such part is returned shared, not copied."""
    parts = []
    for block in blocks:
        if len(block) == 1:
            if block[0].task is task:
                parts.append(block)
        else:
            part = split[id(block)].get(task)
            if part is not None:
                parts.append(part)
    if not parts:
        return ()
    if len(parts) == 1:
        return parts[0]
    return tuple(m for part in parts for m in part)
