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
   of a cross-task sync edge, one-to-one parent tasks for the rest.

None of this analysis reads a size, so it is done once per graph
*structure*: :class:`JobShape` runs the validation and every step above on
one graph and keeps the result as index tables (groups by op id,
components, stage signatures and names, stamping templates, the
topological order).  :meth:`JobShape.plan` then creates and wires only the
objects a job keeps, for any graph of that structure.  :func:`plan_job` is
``JobShape(graph).plan(graph)``; service mode, whose arrivals have two
structures, compiles one shape per job type and plans every arrival of the
type with it.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import NamedTuple, Optional

from .graph import DepType, GraphError, Op, OpGraph, ResourceType
from .monotask import Monotask, ShuffleBarrier, Stage, Task

__all__ = ["JobShape", "PlannedJob", "plan_job"]


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


class PlannedJob:
    """The output of :func:`plan_job`: the monotask DAG, tasks and stages,
    and the :class:`JobShape` they were planned with."""

    def __init__(
        self,
        graph: OpGraph,
        shape: "JobShape",
        monotasks: list[Monotask],
        tasks: list[Task],
        stages: list[Stage],
        barriers: list[ShuffleBarrier],
    ):
        self.graph = graph
        self.shape = shape
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


def plan_job(graph: OpGraph, shape: Optional["JobShape"] = None) -> PlannedJob:
    """Compile ``graph`` into its monotask DAG, tasks, and stages, with
    ``shape`` if given (it must be the shape of ``graph``'s structure)."""
    return (shape if shape is not None else JobShape(graph)).plan(graph)


def _structure(graph: OpGraph) -> tuple:
    """Everything planning and validation read of a graph: per op its
    resource, name, parallelism, dataset counts and out-edges.  Graphs with
    equal structures plan alike, whatever their sizes."""
    return tuple([
        (op.rtype, op.name, op.parallelism, len(op.creates),
         tuple([(c.op_id, dep) for c, dep in op.out_edges]),
         tuple([h.sizes is not None or h.producer is not None for h in op.reads]))
        for op in graph.ops
    ])


_OWN = -1  # a barrier key: the other tasks of the consumer's own component


class _Component(NamedTuple):
    """One component's tables: its stage and everything its tasks are
    stamped with, by group index (see :meth:`JobShape.plan`)."""

    groups: list[int]                 # component order
    one: bool                         # one task, else p (one per partition)
    signature: frozenset
    name: str
    parents: list[tuple[int, list]]   # (group, intra-parent template)
    children: list[tuple[int, list]]  # (group, intra-child template)
    sources: list[int]                # groups with no intra-task parent
    waits: list[int]                  # barrier keys: producer components or _OWN
    #: (producer component, its task index, or None for the consumer's
    #: own index) per one-to-one parent task
    async_parents: list[tuple[int, Optional[int]]]


class JobShape:
    """The planning of one graph structure, compiled once as index tables.

    ``JobShape(graph)`` validates ``graph`` and runs steps 1–4 on its ops;
    :meth:`plan` turns any graph of the same structure (same ops, names,
    parallelism and edges, any sizes) into its :class:`PlannedJob`.  A graph
    of another structure is refused:

    >>> from repro.dataflow import DepType, OpGraph, ResourceType
    >>> def shuffle(name, sizes, out=2):
    ...     g = OpGraph(name)
    ...     src = g.create_data(len(sizes))
    ...     g.set_input(src, sizes)
    ...     ser = g.create_op(ResourceType.CPU, "ser").read(src).create(g.create_data(len(sizes)))
    ...     sh = g.create_op(ResourceType.NETWORK, "sh").read(ser.output).create(g.create_data(out))
    ...     ser.to(sh, DepType.SYNC)
    ...     return g
    >>> shape = JobShape(shuffle("a", [1.0, 2.0, 3.0]))
    >>> [len(shape.plan(shuffle(name, [size] * 3)).tasks) for name, size in (("b", 4.0), ("c", 5.0))]
    [5, 5]
    >>> shape.plan(shuffle("d", [1.0, 2.0, 3.0], out=4))
    Traceback (most recent call last):
    ...
    repro.dataflow.graph.GraphError: OpGraph 'd' does not have the structure of 'a', whose shape plans it
    """

    __slots__ = (
        "name", "key", "order", "_groups", "_blocks", "_singled", "_components",
    )

    def __init__(self, graph: OpGraph):
        graph.validate()
        order = graph.topological_order()
        groups = _collapse_cpu_chains(graph, order)
        self.name = graph.name
        self.key = _structure(graph)
        #: op ids in the graph's topological order
        self.order = tuple([op.op_id for op in order])
        #: (op ids, parallelism) per group, parents first
        self._groups = [(tuple([op.op_id for op in g.ops]), g.parallelism) for g in groups]
        #: per group, its parent and its child blocks: (group, whole) per
        #: in-edge (out-edge) in block order; a sync edge's block is the
        #: whole other group, an async edge's the other group's partition
        self._blocks = [
            (tuple([(p.group_id, dep is DepType.SYNC) for p, dep in g.in_edges]),
             tuple([(c.group_id, dep is DepType.SYNC) for c, dep in g.out_edges]))
            for g in groups
        ]
        self._components = _compile_components(_components(groups))
        #: groups whose partitions some block or template takes one by one
        singled = {g for ins, outs in self._blocks for g, whole in ins + outs if not whole}
        for comp in self._components:
            for _g, template in comp.parents + comp.children:
                singled.update(split for _b, split in template if split is not None)
        self._singled = frozenset(singled)

    def plan(self, graph: OpGraph) -> PlannedJob:
        """``graph``'s monotasks, tasks, stages and barriers; ``graph`` must
        have this shape's structure (:class:`~repro.dataflow.graph.GraphError`
        otherwise)."""
        if _structure(graph) != self.key:
            raise GraphError(
                f"OpGraph {graph.name!r} does not have the structure of "
                f"{self.name!r}, whose shape plans it"
            )
        ops = graph.ops
        monotasks: list[Monotask] = []
        members: list[tuple[Monotask, ...]] = []
        parts: dict[int, list[tuple[Monotask, ...]]] = {}  # partitions as shared 1-tuples
        singled = self._singled
        for g, (op_ids, p) in enumerate(self._groups):
            group_ops = [ops[i] for i in op_ids]
            base = len(monotasks)
            mts = tuple([Monotask(base + i, group_ops, i) for i in range(p)])
            monotasks += mts
            members.append(mts)
            if g in singled:
                parts[g] = [(m,) for m in mts]

        for g, (ins, outs) in enumerate(self._blocks):
            mts = members[g]
            if ins:
                for m, blocks in zip(mts, _block_rows(ins, members, parts, len(mts))):
                    m.parent_blocks = blocks
            if outs:
                for m, blocks in zip(mts, _block_rows(outs, members, parts, len(mts))):
                    m.child_blocks = blocks

        tasks: list[Task] = []
        stages: list[Stage] = []
        for k, comp in enumerate(self._components):
            base = len(tasks)
            if comp.one:
                tasks.append(Task(base, _concat([members[g] for g in comp.groups])))
            else:
                rows = zip(*(members[g] for g in comp.groups))
                tasks.extend([Task(base + i, row) for i, row in enumerate(rows)])
            stages.append(Stage(k, comp.signature, tasks[base:], comp.name))

        barriers: list[ShuffleBarrier] = []
        by_producer: dict[int, ShuffleBarrier] = {}
        async_children: dict[Task, list[Task]] = defaultdict(list)
        for comp, stage in zip(self._components, stages):
            comp_tasks = stage.tasks
            for g, template in comp.parents:
                _stamp(members[g], template, parts, children=False)
            for g, template in comp.children:
                _stamp(members[g], template, parts, children=True)
            if comp.sources == comp.groups:  # no intra-task edge
                for t in comp_tasks:
                    t.source_monotasks = t.monotasks
            elif comp.one:
                comp_tasks[0].source_monotasks = _concat([members[g] for g in comp.sources])
            elif comp.sources:
                for t, row in zip(comp_tasks, zip(*(members[g] for g in comp.sources))):
                    t.source_monotasks = row

            waits = comp.waits
            if _OWN in waits:  # each task waits on its own set of the others
                for t in comp_tasks:
                    t.parent_barriers = row = tuple([
                        _barrier(key, t, comp_tasks, stages, by_producer, barriers)
                        for key in waits
                    ])
                    t.remaining_parents = sum([b.credit for b in row])
                    for b in row:
                        b.consumers.append(t)
            elif waits:  # one row of shared barriers for the whole component
                row = tuple([
                    _barrier(key, None, comp_tasks, stages, by_producer, barriers)
                    for key in waits
                ])
                credit = sum([b.credit for b in row])
                for t in comp_tasks:
                    t.parent_barriers = row
                    t.remaining_parents = credit
                for b in row:
                    b.consumers += comp_tasks
            if comp.async_parents:
                for i, t in enumerate(comp_tasks):
                    t.async_parents = parents = tuple([
                        stages[pc].tasks[i if j is None else j]
                        for pc, j in comp.async_parents
                    ])
                    t.remaining_parents += len(parents)
                    for p in parents:
                        async_children[p].append(t)

        for b in barriers:
            for p in b.producers:
                p.child_barriers += (b,)
        for t, cs in async_children.items():
            t.async_children = tuple(cs)
        return PlannedJob(graph, self, monotasks, tasks, stages, barriers)


def _concat(groups: list[tuple[Monotask, ...]]) -> tuple[Monotask, ...]:
    """The groups' monotasks in order, as one tuple (a lone group's own)."""
    return groups[0] if len(groups) == 1 else tuple([m for mts in groups for m in mts])


def _block_rows(edges, members, parts, n):
    """Each partition's block tuple along ``edges``: one tuple shared by the
    whole group when every edge is sync, else one per partition."""
    if all(whole for _g, whole in edges):
        return [tuple([members[g] for g, _whole in edges])] * n
    if len(edges) == 1:
        return [(part,) for part in parts[edges[0][0]]]
    columns = [[members[g]] * n if whole else parts[g] for g, whole in edges]
    return list(zip(*columns))


def _barrier(key, t, comp_tasks, stages, by_producer, barriers) -> ShuffleBarrier:
    """The barrier consumer ``t`` of ``comp_tasks`` waits on for ``key``:
    the producer component's shared one, or a new one on the component's
    other tasks."""
    if key == _OWN:
        b = ShuffleBarrier(tuple([p for p in comp_tasks if p is not t]))
    elif key in by_producer:
        return by_producer[key]
    else:
        b = by_producer[key] = ShuffleBarrier(tuple(stages[key].tasks))
    barriers.append(b)
    return b


# ----------------------------------------------------------------------
# step 1: collapse async-connected CPU subgraphs
# ----------------------------------------------------------------------
def _collapse_cpu_chains(graph: OpGraph, order: list[Op]) -> list[_OpGroup]:
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
    topo_pos = {op.op_id: i for i, op in enumerate(order)}
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


# ----------------------------------------------------------------------
# step 4: intra-task blocks, sources and task dependencies per group
# ----------------------------------------------------------------------
def _compile_components(components: list[list[_OpGroup]]) -> list[_Component]:
    """One stage per component.  A sync edge inside a component joins its
    groups whole, so it is one task; otherwise its edges are all async, its
    groups share one parallelism p, and task i holds partition i of each.
    Tasks come in order of their lowest mt_id, as the monotask-level
    components do, and hold their monotasks in mt_id order.

    Then work out, once per group, which of its blocks stay in its task,
    which wait on a shuffle barrier and which name a one-to-one parent task.
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
    one = [
        comp[0].parallelism == 1 or any(
            dep is DepType.SYNC and c.rtype is not ResourceType.NETWORK
            for g in comp for c, dep in g.out_edges
        )
        for comp in components
    ]
    out = []
    for k, comp in enumerate(components):
        parents, children, sources = [], [], []
        waits: list[int] = []
        singles: list[tuple[_OpGroup, list[_OpGroup]]] = []
        for g in comp:
            intra: list[tuple[int, Optional[int]]] = []
            one_to_one: list[_OpGroup] = []
            for b, (p, dep) in enumerate(g.in_edges):
                if comp_of[p.group_id] == k:
                    whole = one[k] or dep is DepType.ASYNC
                    intra.append((b, None if whole else p.group_id))
                    if not whole and _OWN not in waits:
                        waits.append(_OWN)
                elif dep is DepType.ASYNC or p.parallelism == 1:
                    one_to_one.append(p)
                elif comp_of[p.group_id] not in waits:
                    waits.append(comp_of[p.group_id])
            if intra:
                parents.append((g.group_id, intra))
            else:
                sources.append(g.group_id)
            if one_to_one:
                singles.append((g, one_to_one))
            intra = [
                (b, None if one[k] or dep is DepType.ASYNC else c.group_id)
                for b, (c, dep) in enumerate(g.out_edges)
                if comp_of[c.group_id] == k
            ]
            if intra:
                children.append((g.group_id, intra))

        # a one-to-one parent's partition is the consumer's (async) or 0
        # (a one-monotask producer, whose component is one task): its task
        # is the producer component's only task, or the one of that index
        found: dict[tuple[int, Optional[int]], None] = {}
        for g, producers in singles:
            for i in range(g.parallelism) if one[k] else (None,):
                for p in producers:
                    pc = comp_of[p.group_id]
                    if pc not in waits:
                        found[(pc, 0 if one[pc] else i)] = None
        ops = [op for g in comp for op in g.ops]
        out.append(_Component(
            [g.group_id for g in comp], one[k], frozenset(op.op_id for op in ops),
            "+".join(sorted({op.name for op in ops})), parents, children, sources,
            waits, list(found),
        ))
    return out


def _stamp(
    mts: tuple[Monotask, ...],
    template: list[tuple[int, Optional[int]]],
    parts: dict[int, list[tuple[Monotask, ...]]],
    children: bool,
) -> None:
    """Set each of ``mts``' intra-task parents (``children``) to the parts
    of its parent (child) blocks in its own task, in block order: per
    ``template`` entry, the block at that index whole (``None``) or the
    monotask's partition of the split group named.  A single part is
    shared, not copied."""
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
            blocks[b] if split is None else parts[split][m.partition_index]
            for b, split in template
        ]
        intra = found[0] if len(found) == 1 else tuple(x for f in found for x in f)
        if children:
            m.intra_task_children = intra
        else:
            m.intra_task_parents = intra
