"""Compiling an OpGraph into monotasks, tasks and stages (§4.1.3).

Steps, exactly as the paper describes:

1. **Collapse** connected subgraphs of CPU ops linked by async dependencies
   into one (fused) CPU op group, "for scalability in scheduling monotasks".
   After this, each task contains at most one CPU monotask.
2. **Generate monotasks** — one per output partition of each op group.  A
   sync dependency between two ops becomes a fully-connected bipartite
   dependency between their monotasks; an async dependency becomes
   one-to-one.
3. **Form tasks** — remove the in-edges of all network monotasks; each
   remaining connected component is a task (its monotasks are collocated
   because transfers are pull-based).
4. **Form stages** — tasks whose monotasks come from the same ops form a
   stage; task-level dependencies are derived from the severed edges.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from .graph import DepType, GraphError, Op, OpGraph, ResourceType
from .monotask import Monotask, Stage, Task

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
    ):
        self.graph = graph
        self.monotasks = monotasks
        self.tasks = tasks
        self.stages = stages

    @property
    def root_tasks(self) -> list[Task]:
        return [t for t in self.tasks if not t.parents]

    def stage_of(self, task: Task) -> Stage:
        assert task.stage is not None
        return task.stage

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"PlannedJob({self.graph.name}: {len(self.monotasks)} monotasks, "
            f"{len(self.tasks)} tasks, {len(self.stages)} stages)"
        )


def plan_job(graph: OpGraph) -> PlannedJob:
    """Compile ``graph`` into its monotask DAG, tasks, and stages."""
    graph.validate()
    groups = _collapse_cpu_chains(graph)
    monotasks = _generate_monotasks(groups)
    tasks = _form_tasks(monotasks)
    stages = _form_stages(tasks)
    _wire_task_dependencies(tasks)
    return PlannedJob(graph, monotasks, tasks, stages)


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
def _generate_monotasks(groups: list[_OpGroup]) -> list[Monotask]:
    monotasks: list[Monotask] = []
    per_group: dict[int, list[Monotask]] = {}
    for g in groups:
        mts = [Monotask(len(monotasks) + i, g.ops, i) for i in range(g.parallelism)]
        monotasks.extend(mts)
        per_group[g.group_id] = mts

    for g in groups:
        for child_group, dep in g.out_edges:
            srcs = per_group[g.group_id]
            dsts = per_group[child_group.group_id]
            if dep is DepType.SYNC:
                for s in srcs:
                    for d in dsts:
                        s.children.append(d)
                        d.parents.append(s)
            else:
                if len(srcs) != len(dsts):  # pragma: no cover - validated earlier
                    raise GraphError(
                        f"async edge {g.name!r}->{child_group.name!r} parallelism mismatch"
                    )
                for s, d in zip(srcs, dsts):
                    s.children.append(d)
                    d.parents.append(s)
    return monotasks


# ----------------------------------------------------------------------
# step 3: connected components after cutting network in-edges
# ----------------------------------------------------------------------
def _form_tasks(monotasks: list[Monotask]) -> list[Task]:
    n = len(monotasks)
    index = {id(m): i for i, m in enumerate(monotasks)}
    uf = _UnionFind(n)
    network = ResourceType.NETWORK
    for m in monotasks:
        # a shuffle producer has one child per consumer: test rtype inline
        for child in m.children:
            if child.rtype is network:
                continue  # severed: in-edge of a network monotask
            uf.union(index[id(m)], index[id(child)])

    members: dict[int, list[Monotask]] = defaultdict(list)
    for i, m in enumerate(monotasks):
        members[uf.find(i)].append(m)

    tasks: list[Task] = []
    for root in sorted(members, key=lambda r: min(mm.mt_id for mm in members[r])):
        mts = sorted(members[root], key=lambda mm: mm.mt_id)
        tasks.append(Task(len(tasks), mts))
    return tasks


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


def _wire_task_dependencies(tasks: list[Task]) -> None:
    """Derive task-level edges from the severed monotask edges, and in the
    same walk each monotask's intra-task parents and each task's source
    monotasks."""
    for t in tasks:
        sources: list[Monotask] = []
        for m in t.monotasks:
            intra: list[Monotask] = []
            for parent in m.parents:
                pt = parent.task
                assert pt is not None
                if pt is not t:
                    t.parents.add(pt)
                    pt.children.add(t)
                else:
                    intra.append(parent)
            m.intra_task_parents = tuple(intra)
            if not intra:
                sources.append(m)
        t.source_monotasks = tuple(sources)
    for t in tasks:
        t.remaining_parents = len(t.parents)
