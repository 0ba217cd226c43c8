"""The planner as it was before the shape split: the differential oracle.

Before :class:`repro.dataflow.planner.JobShape` compiled each op-graph
structure once, :func:`plan_job` ran the four steps below on every graph.
This module keeps that planner unchanged in behaviour, so
``tests/dataflow/test_plan_shape.py`` can compare every field of a
``JobShape.plan`` against it.  Its one edit: monotasks now start with empty
block tuples, so this planner gives each monotask its own lists before it
appends to them.

The original module docstring follows.

Compiling an OpGraph into monotasks, tasks and stages (§4.1.3).

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
3. **Form tasks and stages** — remove the in-edges of all network
   monotasks; each remaining connected component is a task (its monotasks
   are collocated because transfers are pull-based), and tasks whose
   monotasks come from the same ops form a stage.  Both follow from the
   op-group graph alone, because an async edge pairs partition i with
   partition i and a sync edge joins two whole groups: the groups joined
   by edges that do not enter a network group form a *component*, which
   is one stage; a sync edge inside it makes it one task, otherwise it is
   p tasks and task i holds partition i of each group.
4. **Stamp dependencies** — per group position in a component, work out
   once which blocks stay inside the task (the intra-task parents and
   children), whether the group is a task source, and which severed
   edges the task waits on: one shared
   :class:`~repro.dataflow.monotask.ShuffleBarrier` per producer component
   of a cross-task sync edge, one-to-one parent tasks for the rest.  Then
   stamp that onto every partition, so planning costs the monotask and
   task objects plus per-group work.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Optional

from repro.dataflow.graph import DepType, GraphError, Op, OpGraph, ResourceType
from repro.dataflow.monotask import Monotask, ShuffleBarrier, Stage, Task

__all__ = ["PlannedJob", "plan_job", "static_size_totals"]


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
    """A fused group of CPU ops (or a singleton non-CPU op).  Its ops are
    checked here, once for all of the group's monotasks."""

    __slots__ = ("group_id", "ops", "rtype", "in_edges", "out_edges")

    def __init__(self, group_id: int, ops: list[Op]):
        if not ops:
            raise ValueError("a monotask needs at least one op")
        if len({op.rtype for op in ops}) != 1:
            raise ValueError("fused ops must share one resource type")
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
    components = _components(groups)
    tasks, stages = _component_tasks(components, members)
    barriers = _stamp_components(components, stages, members)
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
    chains = sorted(
        (sorted(ops, key=lambda o: topo_pos[o.op_id]) for ops in members.values()),
        key=lambda ops: topo_pos[ops[0].op_id],
    )
    groups: list[_OpGroup] = []
    group_of: dict[int, _OpGroup] = {}
    for ops in _parents_first(chains):
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
            if g1 is not g2:
                g1.out_edges.append((g2, dep))
    # in-edges in the order monotask generation wires the parent blocks
    for g in groups:
        for child_group, dep in g.out_edges:
            child_group.in_edges.append((g, dep))
    return groups


def _parents_first(chains: list[list[Op]]) -> list[list[Op]]:
    """The fused op chains in a topological order of the edges between
    them, each as early as its first op allows.  A chain fused from an
    early and a late op then follows every chain feeding the late one, so
    each task's monotasks (kept in mt_id order) come parents-first."""
    chain_of = {op.op_id: k for k, ops in enumerate(chains) for op in ops}
    succ = [
        {chain_of[child.op_id] for op in ops for child, _dep in op.out_edges} - {k}
        for k, ops in enumerate(chains)
    ]
    waiting = [0] * len(chains)
    for cs in succ:
        for c in cs:
            waiting[c] += 1
    ready = [k for k, n in enumerate(waiting) if not n]  # ascending: a heap
    order: list[list[Op]] = []
    while ready:
        k = heapq.heappop(ready)
        order.append(chains[k])
        for c in succ[k]:
            waiting[c] -= 1
            if not waiting[c]:
                heapq.heappush(ready, c)
    if len(order) < len(chains):
        stuck = [op.name for k, n in enumerate(waiting) if n for op in chains[k]]
        raise GraphError(f"fusing CPU ops leaves a dependency cycle among {stuck}")
    return order


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
        for m in mts:
            m.parent_blocks, m.child_blocks = [], []
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
# step 3: op-group components, each one stage of one task or p tasks
# ----------------------------------------------------------------------
def _components(groups: list[_OpGroup]) -> list[list[_OpGroup]]:
    """The groups joined by edges that do not enter a network group, each
    component's in group order, components in order of their first."""
    uf = _UnionFind(len(groups))
    for g in groups:
        for child_group, _dep in g.out_edges:
            if child_group.rtype is not ResourceType.NETWORK:
                uf.union(g.group_id, child_group.group_id)
    by_root: dict[int, list[_OpGroup]] = defaultdict(list)
    for g in groups:
        by_root[uf.find(g.group_id)].append(g)
    return list(by_root.values())


def _component_tasks(
    components: list[list[_OpGroup]], members: list[tuple[Monotask, ...]]
) -> tuple[list[Task], list[Stage]]:
    """One stage per component.  A sync edge inside a component joins its
    groups whole, so it is one task; otherwise its edges are all async, its
    groups share one parallelism p, and task i holds partition i of each.
    Tasks come in order of their lowest mt_id, as the monotask-level
    components do, and hold their monotasks in mt_id order."""
    tasks: list[Task] = []
    stages: list[Stage] = []
    for k, comp in enumerate(components):
        base = len(tasks)
        if comp[0].parallelism == 1 or any(
            dep is DepType.SYNC and c.rtype is not ResourceType.NETWORK
            for g in comp for c, dep in g.out_edges
        ):
            tasks.append(Task(base, [m for g in comp for m in members[g.group_id]]))
        else:
            rows = zip(*(members[g.group_id] for g in comp))
            tasks.extend(Task(base + i, list(row)) for i, row in enumerate(rows))
        ops = [op for g in comp for op in g.ops]
        stages.append(Stage(
            k, frozenset(op.op_id for op in ops), tasks[base:],
            "+".join(sorted({op.name for op in ops})),
        ))
    return tasks, stages


# ----------------------------------------------------------------------
# step 4: intra-task blocks, sources and task dependencies per group
# ----------------------------------------------------------------------
_OWN = -1  # a barrier key: the other tasks of the consumer's own component


def _stamp_components(
    components: list[list[_OpGroup]],
    stages: list[Stage],
    members: list[tuple[Monotask, ...]],
) -> list[ShuffleBarrier]:
    """Work out, once per group, which of its blocks stay in its task, which
    wait on a shuffle barrier and which name a one-to-one parent task, and
    stamp that onto every partition.  Returns the barriers.

    A block whose producer group lies in the same component stays in the
    task: whole in a one-task component or for an async edge, else (a sync
    edge into a network group, severed inside the component) as the
    partition's 1-tuple, the task then also waiting on the component's
    other tasks (the task graph is cyclic, so no runnable plan has one).
    Across components, a block of one monotask is a one-to-one parent task
    and a larger one waits on every task of the producer's component: one
    barrier per producer component, shared by all its consumer tasks.  A
    one-to-one parent that a barrier already holds is dropped."""
    comp_of = {g.group_id: k for k, comp in enumerate(components) for g in comp}
    parts: dict[int, list[tuple[Monotask, ...]]] = {}

    def part(g: _OpGroup) -> list[tuple[Monotask, ...]]:
        """``g``'s partitions as 1-tuples, one shared per task."""
        if g.group_id not in parts:
            parts[g.group_id] = [(m,) for m in members[g.group_id]]
        return parts[g.group_id]

    barriers: list[ShuffleBarrier] = []
    by_producer: dict[int, ShuffleBarrier] = {}

    def barrier(key: int, k: int, t: Optional[Task]) -> ShuffleBarrier:
        """The barrier consumer ``t`` of component ``k`` waits on for
        ``key``: the producer component's shared one, or a new one on the
        other tasks of ``k``."""
        if key == _OWN:
            b = ShuffleBarrier(tuple(p for p in stages[k].tasks if p is not t))
        elif key in by_producer:
            return by_producer[key]
        else:
            b = by_producer[key] = ShuffleBarrier(tuple(stages[key].tasks))
        barriers.append(b)
        return b

    async_children: dict[Task, list[Task]] = defaultdict(list)
    for k, comp in enumerate(components):
        comp_tasks = stages[k].tasks
        one = len(comp_tasks) == 1
        sources: list[tuple[Monotask, ...]] = []
        waits: list[int] = []  # barrier keys: producer components or _OWN
        singles: list[tuple[tuple[Monotask, ...], list[int]]] = []
        for g in comp:
            mts = members[g.group_id]
            intra: list[tuple[int, Optional[list]]] = []
            one_to_one: list[int] = []
            for b, (p, dep) in enumerate(g.in_edges):
                if comp_of[p.group_id] == k:
                    whole = one or dep is DepType.ASYNC
                    intra.append((b, None if whole else part(p)))
                    if not whole and _OWN not in waits:
                        waits.append(_OWN)
                elif dep is DepType.ASYNC or p.parallelism == 1:
                    one_to_one.append(b)
                elif comp_of[p.group_id] not in waits:
                    waits.append(comp_of[p.group_id])
            if intra:
                _stamp(mts, intra, children=False)
            else:
                sources.append(mts)
            if one_to_one:
                singles.append((mts, one_to_one))
            intra = [
                (b, None if one or dep is DepType.ASYNC else part(c))
                for b, (c, dep) in enumerate(g.out_edges)
                if comp_of[c.group_id] == k
            ]
            if intra:
                _stamp(mts, intra, children=True)

        if one:
            comp_tasks[0].source_monotasks = tuple(m for mts in sources for m in mts)
        elif sources:
            for t, row in zip(comp_tasks, zip(*sources)):
                t.source_monotasks = row

        if _OWN in waits:
            rows = [tuple(barrier(key, k, t) for key in waits) for t in comp_tasks]
        else:
            rows = [tuple(barrier(key, k, None) for key in waits)] * len(comp_tasks)
        credits = [sum(b.credit for b in row) for row in rows]
        for i, t in enumerate(comp_tasks):
            t.parent_barriers = rows[i]
            t.remaining_parents = credits[i]
            for b in rows[i]:
                b.consumers.append(t)
            if singles:
                parents: dict[Task, None] = {}
                for mts, bs in singles:
                    for m in (mts if one else (mts[i],)):
                        for b in bs:
                            pt = m.parent_blocks[b][0].task
                            if pt.stage.stage_id not in waits:  # type: ignore[union-attr]
                                parents[pt] = None  # type: ignore[index]
                t.async_parents = tuple(parents)
                t.remaining_parents += len(t.async_parents)
                for p in t.async_parents:
                    async_children[p].append(t)

    child_barriers: dict[Task, list[ShuffleBarrier]] = defaultdict(list)
    for b in barriers:
        for p in b.producers:
            child_barriers[p].append(b)
    for t, bs in child_barriers.items():
        t.child_barriers = tuple(bs)
    for t, cs in async_children.items():
        t.async_children = tuple(cs)
    return barriers


def _stamp(
    mts: tuple[Monotask, ...],
    template: list[tuple[int, Optional[list]]],
    children: bool,
) -> None:
    """Set each of ``mts``' intra-task parents (``children``) to the parts
    of its parent (child) blocks in its own task, in block order: per
    ``template`` entry, the block at that index whole (``None``) or the
    monotask's partition of a split group.  A single part is shared, not
    copied."""
    if len(template) == 1 and template[0][1] is None:  # the usual case
        b = template[0][0]
        if children:
            for m in mts:
                m.intra_task_children = m.child_blocks[b]
        else:
            for m in mts:
                m.intra_task_parents = m.parent_blocks[b]
        return
    for m in mts:
        blocks = m.child_blocks if children else m.parent_blocks
        found = [
            blocks[b] if split is None else split[m.partition_index]
            for b, split in template
        ]
        intra = found[0] if len(found) == 1 else tuple(x for f in found for x in f)
        if children:
            m.intra_task_children = intra
        else:
            m.intra_task_parents = intra


def static_size_totals(graph: OpGraph) -> dict[ResourceType, float]:
    """The job's per-resource total work (MB) by static size propagation,
    in the graph's own topological order, as the estimator computed it."""
    sizes: dict[int, float] = {}  # data_id -> total MB
    for d in graph.datasets:
        if d.sizes is not None:
            sizes[d.data_id] = sum(d.sizes)
    totals = {r: 0.0 for r in (ResourceType.CPU, ResourceType.NETWORK, ResourceType.DISK)}
    for op in graph.topological_order():
        in_total = sum(sizes.get(h.data_id, 0.0) for h in op.reads)
        totals[op.rtype] += in_total
        out = op.output
        if out is None:
            continue
        if op.size_fn is not None:
            out_total = sum(
                op.size_fn(i, in_total / max(1, op.parallelism))
                for i in range(op.parallelism)
            )
        else:
            out_total = in_total
        sizes[out.data_id] = out_total
    return totals
