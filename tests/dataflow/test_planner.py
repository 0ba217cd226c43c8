"""Tests for monotask generation, task formation and stage formation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import (
    DepType,
    GraphError,
    OpGraph,
    ResourceType,
    plan_job,
)


def reduce_by_key_graph(p_in=3, p_out=2):
    """The paper's §4.1.2 reduceByKey example: ser -> shuffle -> deser."""
    g = OpGraph("rbk")
    src = g.create_data(p_in, "src")
    g.set_input(src, [10.0] * p_in)
    msg = g.create_data(p_in, "msg")
    shuffled = g.create_data(p_out, "shuffled")
    result = g.create_data(p_out, "result")
    ser = g.create_op(ResourceType.CPU, "ser").read(src).create(msg)
    shuffle = g.create_op(ResourceType.NETWORK, "shuffle").read(msg).create(shuffled)
    deser = g.create_op(ResourceType.CPU, "deser").read(shuffled).create(result)
    ser.to(shuffle, DepType.SYNC)
    shuffle.to(deser, DepType.ASYNC)
    return g


def test_reduce_by_key_monotask_counts():
    plan = plan_job(reduce_by_key_graph(3, 2))
    # 3 ser + 2 shuffle + 2 deser
    assert len(plan.monotasks) == 7


def test_sync_dependency_is_bipartite():
    plan = plan_job(reduce_by_key_graph(3, 2))
    shuffles = [m for m in plan.monotasks if m.rtype is ResourceType.NETWORK]
    assert len(shuffles) == 2
    for sh in shuffles:
        assert len(sh.parents) == 3  # every ser feeds every shuffle


def test_async_dependency_is_one_to_one():
    plan = plan_job(reduce_by_key_graph(3, 2))
    desers = [m for m in plan.monotasks if m.rtype is ResourceType.CPU and m.head_op.name == "deser"]
    assert len(desers) == 2
    for d in desers:
        assert len(d.parents) == 1
        assert d.parents[0].rtype is ResourceType.NETWORK
        assert d.parents[0].partition_index == d.partition_index


def test_task_formation_cuts_network_in_edges():
    plan = plan_job(reduce_by_key_graph(3, 2))
    # tasks: 3 ser tasks + 2 (shuffle+deser) tasks
    assert len(plan.tasks) == 5
    sizes = sorted(len(t.monotasks) for t in plan.tasks)
    assert sizes == [1, 1, 1, 2, 2]


def test_shuffle_and_deser_collocate_in_one_task():
    plan = plan_job(reduce_by_key_graph(3, 2))
    two = [t for t in plan.tasks if len(t.monotasks) == 2]
    for t in two:
        rtypes = sorted(m.rtype.value for m in t.monotasks)
        assert rtypes == ["cpu", "network"]
        net = next(m for m in t.monotasks if m.is_network)
        cpu = next(m for m in t.monotasks if not m.is_network)
        assert net.children == [cpu]
        assert net.is_task_source
        assert not cpu.is_task_source


def test_stage_formation_groups_same_ops():
    plan = plan_job(reduce_by_key_graph(3, 2))
    assert len(plan.stages) == 2
    by_size = {s.num_tasks for s in plan.stages}
    assert by_size == {3, 2}


def test_task_dependencies_follow_severed_edges():
    plan = plan_job(reduce_by_key_graph(3, 2))
    ser_tasks = [t for t in plan.tasks if len(t.monotasks) == 1]
    down_tasks = [t for t in plan.tasks if len(t.monotasks) == 2]
    for dt in down_tasks:
        assert dt.parents == set(ser_tasks)
        assert dt.remaining_parents == 3
    for s in ser_tasks:
        assert s.children == set(down_tasks)
        assert not s.parents
    assert set(plan.root_tasks) == set(ser_tasks)


def test_cpu_chain_collapse():
    """map -> filter -> map connected by async edges fuse into one group."""
    g = OpGraph("chain")
    src = g.create_data(4)
    g.set_input(src, [1.0] * 4)
    a = g.create_op(ResourceType.CPU, "a").read(src).create(g.create_data(4))
    b = g.create_op(ResourceType.CPU, "b").read(a.output).create(g.create_data(4))
    c = g.create_op(ResourceType.CPU, "c").read(b.output).create(g.create_data(4))
    a.to(b, DepType.ASYNC)
    b.to(c, DepType.ASYNC)
    plan = plan_job(g)
    assert len(plan.monotasks) == 4  # one fused monotask per partition
    for m in plan.monotasks:
        assert [op.name for op in m.ops] == ["a", "b", "c"]
    assert len(plan.tasks) == 4
    assert len(plan.stages) == 1


def test_sync_cpu_edges_are_not_collapsed():
    g = OpGraph()
    src = g.create_data(2)
    g.set_input(src, [1.0, 1.0])
    a = g.create_op(ResourceType.CPU, "a").read(src).create(g.create_data(2))
    b = g.create_op(ResourceType.CPU, "b").read(a.output).create(g.create_data(2))
    a.to(b, DepType.SYNC)
    plan = plan_job(g)
    assert len(plan.monotasks) == 4  # two groups of two


def test_at_most_one_cpu_monotask_per_task_after_collapse():
    """Paper §4.2.1: 'there is at most one CPU monotask in each task'."""
    plan = plan_job(reduce_by_key_graph(5, 3))
    for t in plan.tasks:
        assert len(t.cpu_monotasks) <= 1


def test_collapse_rejects_mismatched_parallelism():
    g = OpGraph()
    src = g.create_data(4)
    g.set_input(src, [1.0] * 4)
    a = g.create_op(ResourceType.CPU, "a").read(src).create(g.create_data(4))
    b = g.create_op(ResourceType.CPU, "b").read(a.output).create(g.create_data(3))
    a.to(b, DepType.ASYNC)
    with pytest.raises(GraphError):
        plan_job(g)


def test_collapse_rejects_a_fusion_that_closes_a_cycle():
    """a -async-> c fuses a and c, but c also waits on b, which waits on a:
    the fused group would wait on itself, so planning refuses it."""
    g = OpGraph()
    src = g.create_data(1)
    g.set_input(src, [1.0])
    a = g.create_op(ResourceType.CPU, "a").read(src).create(g.create_data(1))
    b = g.create_op(ResourceType.CPU, "b").read(a.output).create(g.create_data(1))
    c = g.create_op(ResourceType.CPU, "c").read(a.output, b.output).create(g.create_data(1))
    a.to(b, DepType.SYNC)
    a.to(c, DepType.ASYNC)
    b.to(c, DepType.SYNC)
    with pytest.raises(GraphError, match="cycle"):
        plan_job(g)


def test_diamond_dag():
    """src -> (left, right) -> join via shuffles."""
    g = OpGraph("diamond")
    src = g.create_data(2)
    g.set_input(src, [5.0, 5.0])
    m_l = g.create_data(2)
    m_r = g.create_data(2)
    left = g.create_op(ResourceType.CPU, "left").read(src).create(m_l)
    right = g.create_op(ResourceType.CPU, "right").read(src).create(m_r)
    sh_l = g.create_op(ResourceType.NETWORK, "shl").read(m_l).create(g.create_data(2))
    sh_r = g.create_op(ResourceType.NETWORK, "shr").read(m_r).create(g.create_data(2))
    join = g.create_op(ResourceType.CPU, "join").read(sh_l.output, sh_r.output).create(g.create_data(2))
    left.to(sh_l, DepType.SYNC)
    right.to(sh_r, DepType.SYNC)
    sh_l.to(join, DepType.ASYNC)
    sh_r.to(join, DepType.ASYNC)
    plan = plan_job(g)
    # join task contains shl, shr, join monotasks for the same partition
    join_tasks = [t for t in plan.tasks if len(t.monotasks) == 3]
    assert len(join_tasks) == 2
    for t in join_tasks:
        assert len(t.cpu_monotasks) == 1
    # left and right are separate single-monotask tasks feeding both joins
    singles = [t for t in plan.tasks if len(t.monotasks) == 1]
    assert len(singles) == 4


def test_disk_write_stays_in_cpu_task():
    g = OpGraph()
    src = g.create_data(2)
    g.set_input(src, [1.0, 1.0])
    a = g.create_op(ResourceType.CPU, "a").read(src).create(g.create_data(2))
    w = g.create_op(ResourceType.DISK, "w").read(a.output).create(g.create_data(2))
    a.to(w, DepType.ASYNC)
    plan = plan_job(g)
    assert len(plan.tasks) == 2
    for t in plan.tasks:
        assert sorted(m.rtype.value for m in t.monotasks) == ["cpu", "disk"]


def test_multi_stage_chain_depth():
    """A depth-k chain of shuffles yields k+1 stages."""
    g = OpGraph()
    prev = g.create_data(3)
    g.set_input(prev, [1.0] * 3)
    prev_op = None
    k = 4
    for i in range(k):
        cpu = g.create_op(ResourceType.CPU, f"c{i}").read(prev).create(g.create_data(3))
        if prev_op is not None:
            prev_op.to(cpu, DepType.ASYNC)
        net = g.create_op(ResourceType.NETWORK, f"n{i}").read(cpu.output).create(g.create_data(3))
        cpu.to(net, DepType.SYNC)
        prev = net.output
        prev_op = net
    final = g.create_op(ResourceType.CPU, "final").read(prev).create(g.create_data(3))
    prev_op.to(final, DepType.ASYNC)
    plan = plan_job(g)
    assert len(plan.stages) == k + 1


@st.composite
def random_shuffle_dags(draw):
    """Random layered shuffle DAGs: each layer = CPU op (maybe a fused chain)
    followed by a shuffle to the next layer."""
    layers = draw(st.integers(min_value=1, max_value=4))
    chain_lens = [draw(st.integers(min_value=1, max_value=3)) for _ in range(layers)]
    pars = [draw(st.integers(min_value=1, max_value=5)) for _ in range(layers + 1)]
    return layers, chain_lens, pars


@settings(max_examples=40, deadline=None)
@given(random_shuffle_dags())
def test_property_every_monotask_in_exactly_one_task(params):
    layers, chain_lens, pars = params
    g = OpGraph()
    data = g.create_data(pars[0])
    g.set_input(data, [1.0] * pars[0])
    prev_op = None
    for layer in range(layers):
        for j in range(chain_lens[layer]):
            cpu = g.create_op(ResourceType.CPU, f"c{layer}_{j}").read(data).create(
                g.create_data(pars[layer])
            )
            if prev_op is not None:
                dep = DepType.ASYNC if prev_op.rtype is ResourceType.CPU else DepType.ASYNC
                prev_op.to(cpu, dep)
            data = cpu.output
            prev_op = cpu
        net = g.create_op(ResourceType.NETWORK, f"n{layer}").read(data).create(
            g.create_data(pars[layer + 1])
        )
        prev_op.to(net, DepType.SYNC)
        data = net.output
        prev_op = net
    plan = plan_job(g)

    # partition of monotasks into tasks
    seen = set()
    for t in plan.tasks:
        for m in t.monotasks:
            assert id(m) not in seen
            seen.add(id(m))
            assert m.task is t
    assert len(seen) == len(plan.monotasks)

    # at most one CPU monotask per task (chains are fused)
    for t in plan.tasks:
        assert len(t.cpu_monotasks) <= 1

    # every task in exactly one stage
    staged = [t for s in plan.stages for t in s.tasks]
    assert sorted(t.task_id for t in staged) == sorted(t.task_id for t in plan.tasks)

    # task dep graph is acyclic and consistent with monotask edges
    for t in plan.tasks:
        assert t not in t.parents
        for p in t.parents:
            assert t in p.children


# ----------------------------------------------------------------------
# plan-time intra-task parents and task sources
# ----------------------------------------------------------------------
def _workload_graphs():
    from repro.experiments.common import SCALES
    from repro.experiments.fig8_fig9_fig10_synthetic import params_for
    from repro.simcore import derive_rng
    from repro.workloads import JobSpec, StageSpec, synthetic_setting1, tpch_workload

    setting1 = [spec for spec, _t in synthetic_setting1(params_for(SCALES["tiny"]), n_jobs=1)]
    tpch = [spec for spec, _t in tpch_workload(n_jobs=4, seed=3, scale=0.01)]
    skewed = JobSpec(
        "skewed-shuffle",
        [
            StageSpec(8, source_mb=800.0, skew_sigma=0.8),
            StageSpec(5, shuffle_parents=(0,), skew_sigma=0.8),
            StageSpec(5, narrow_parent=1, write_output_mb=10.0),
            StageSpec(3, shuffle_parents=(1, 2), skew_sigma=0.5),
        ],
        512.0,
    )
    specs = setting1 + tpch + [skewed]
    return [spec.build_graph(derive_rng(7, spec.name)) for spec in specs]


def _workload_plans():
    return [plan_job(graph) for graph in _workload_graphs()]


def test_plan_time_intra_fields_match_their_definitions():
    for plan in _workload_plans():
        for t in plan.tasks:
            for m in t.monotasks:
                assert list(m.intra_task_parents) == [p for p in m.parents if p.task is m.task]
            assert list(t.source_monotasks) == [
                m for m in t.monotasks
                if not [p for p in m.parents if p.task is m.task]
            ]


def test_fault_rewind_leaves_plan_time_fields_alone():
    from tests.execution.helpers import run_job

    job, jm, _cluster, _backend = run_job(reduce_by_key_graph(3, 2))
    before = {id(m): m.intra_task_parents for m in job.plan.monotasks}
    sources = {id(t): t.source_monotasks for t in job.plan.tasks}
    assert any(before.values()) and all(sources.values())
    for t in job.plan.tasks:
        jm.fault_rewind_task(t)
    for m in job.plan.monotasks:
        assert m.intra_task_parents is before[id(m)]
    for t in job.plan.tasks:
        assert t.source_monotasks is sources[id(t)]


# ----------------------------------------------------------------------
# oracle: the literal bipartite construction the plan must reproduce
# ----------------------------------------------------------------------
def reference_plan(graph):
    """Steps 2-4 with every sync edge stored per (producer, consumer) pair,
    as mt_id / task_id lists and sets.  Quadratic: a test oracle only."""
    from tests.dataflow.plan_reference import _collapse_cpu_chains

    groups = _collapse_cpu_chains(graph)
    ids, rtype, ops = {}, [], []
    for g in groups:
        ids[g.group_id] = list(range(len(rtype), len(rtype) + g.parallelism))
        rtype += [g.rtype] * g.parallelism
        ops += [g.ops] * g.parallelism
    n = len(rtype)
    parents = [[] for _ in range(n)]
    children = [[] for _ in range(n)]
    # each consumer's producers along one op-group edge, in edge order
    edge_parents = [[] for _ in range(n)]
    for g in groups:
        for cg, dep in g.out_edges:
            srcs, dsts = ids[g.group_id], ids[cg.group_id]
            if dep is DepType.SYNC:
                pairs = [(s, d) for s in srcs for d in dsts]
            else:
                pairs = list(zip(srcs, dsts))
            for s, d in pairs:
                children[s].append(d)
                parents[d].append(s)
            for d in dsts:
                edge_parents[d].append([s for s, d2 in pairs if d2 == d])

    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for m in range(n):
        for c in children[m]:
            if rtype[c] is not ResourceType.NETWORK:
                root[find(c)] = find(m)
    components = {}
    for m in range(n):
        components.setdefault(find(m), []).append(m)
    tasks = sorted(components.values(), key=min)
    task_of = {m: i for i, mts in enumerate(tasks) for m in mts}

    tparents = [set() for _ in tasks]
    tchildren = [set() for _ in tasks]
    for i, mts in enumerate(tasks):
        for m in mts:
            for p in parents[m]:
                if task_of[p] != i:
                    tparents[i].add(task_of[p])
                    tchildren[task_of[p]].add(i)
    intra_parents = [[p for p in parents[m] if task_of[p] == task_of[m]] for m in range(n)]
    intra_children = [[c for c in children[m] if task_of[c] == task_of[m]] for m in range(n)]

    # stages: tasks with the same op set, in order of their first task
    signatures = [frozenset(op.op_id for m in mts for op in ops[m]) for mts in tasks]
    stage_tasks = {}
    for i, sig in enumerate(signatures):
        stage_tasks.setdefault(sig, []).append(i)
    stages = [
        (sig, "+".join(sorted({op.name for m in tasks[ts[0]] for op in ops[m]})), ts)
        for sig, ts in stage_tasks.items()
    ]

    # task dependencies, one consumer task at a time in monotask and edge
    # order: an edge with one producer monotask makes a one-to-one parent
    # task; an edge with more waits on the producer tasks other than the
    # consumer, one barrier per distinct set, created on first use
    barriers = {}  # producer task set -> (producers, consumers)
    waits = [[] for _ in tasks]
    singles = [[] for _ in tasks]
    for i, mts in enumerate(tasks):
        for m in mts:
            for producers in edge_parents[m]:
                owners = list(dict.fromkeys(task_of[p] for p in producers))
                if len(producers) == 1:
                    if owners[0] != i and owners[0] not in singles[i]:
                        singles[i].append(owners[0])
                    continue
                others = [o for o in owners if o != i]
                key = frozenset(others)
                if others and key not in waits[i]:
                    waits[i].append(key)
                    barriers.setdefault(key, (others, []))[1].append(i)
    order = list(barriers)
    async_parents = [
        [s for s in singles[i] if not any(s in key for key in waits[i])]
        for i in range(len(tasks))
    ]
    child_barriers = [[] for _ in tasks]
    for b, key in enumerate(order):
        for p in barriers[key][0]:
            child_barriers[p].append(b)
    async_children = [[] for _ in tasks]
    for i, ps in enumerate(async_parents):
        for p in ps:
            async_children[p].append(i)
    return {
        "parents": parents,
        "children": children,
        "intra_parents": intra_parents,
        "intra_children": intra_children,
        "tasks": tasks,
        "sources": [[m for m in mts if not intra_parents[m]] for mts in tasks],
        "task_parents": tparents,
        "task_children": tchildren,
        "remaining": [len(s) for s in tparents],
        "stages": stages,
        "barriers": [
            (barriers[key][0], barriers[key][1], len(barriers[key][0])) for key in order
        ],
        "parent_barriers": [[order.index(key) for key in ks] for ks in waits],
        "child_barriers": child_barriers,
        "async_parents": async_parents,
        "async_children": async_children,
    }


def assert_matches_reference(graph):
    plan = plan_job(graph)
    ref = reference_plan(graph)
    ids = lambda ms: [m.mt_id for m in ms]  # noqa: E731
    tids = lambda ts: {t.task_id for t in ts}  # noqa: E731
    tlist = lambda ts: [t.task_id for t in ts]  # noqa: E731
    assert [m.mt_id for m in plan.monotasks] == list(range(len(ref["parents"])))
    shared = {}  # a multi-monotask block is one tuple, however many hold it
    for m in plan.monotasks:
        for block in m.parent_blocks + m.child_blocks:
            if len(block) > 1:
                assert shared.setdefault(ids(block)[0], block) is block
        assert ids(m.parents) == ref["parents"][m.mt_id]
        assert ids(m.children) == ref["children"][m.mt_id]
        assert ids(m.intra_task_parents) == ref["intra_parents"][m.mt_id]
        assert ids(m.intra_task_children) == ref["intra_children"][m.mt_id]
        assert type(m.parents) is list and type(m.children) is list
    assert [ids(t.monotasks) for t in plan.tasks] == ref["tasks"]
    assert [t.task_id for t in plan.tasks] == list(range(len(ref["tasks"])))
    barrier_index = {id(b): k for k, b in enumerate(plan.barriers)}
    for t in plan.tasks:
        # parents first: the JobManager resolves input sizes in this order
        pos = {id(m): i for i, m in enumerate(t.monotasks)}
        for i, m in enumerate(t.monotasks):
            assert all(pos[id(p)] < i for p in m.intra_task_parents)
        assert ids(t.source_monotasks) == ref["sources"][t.task_id]
        assert type(t.parents) is set and type(t.children) is set
        assert tids(t.parents) == ref["task_parents"][t.task_id]
        assert tids(t.children) == ref["task_children"][t.task_id]
        assert t.remaining_parents == ref["remaining"][t.task_id]
        assert [barrier_index[id(b)] for b in t.parent_barriers] == (
            ref["parent_barriers"][t.task_id]
        )
        assert [barrier_index[id(b)] for b in t.child_barriers] == (
            ref["child_barriers"][t.task_id]
        )
        assert tlist(t.async_parents) == ref["async_parents"][t.task_id]
        assert tlist(t.async_children) == ref["async_children"][t.task_id]
    assert [
        (tlist(b.producers), tlist(b.consumers), b.credit) for b in plan.barriers
    ] == ref["barriers"]
    assert all(b.remaining == b.credit for b in plan.barriers)
    assert [s.stage_id for s in plan.stages] == list(range(len(ref["stages"])))
    assert [(s.signature, s.name, tlist(s.tasks)) for s in plan.stages] == ref["stages"]
    assert all(t.stage is s for s in plan.stages for t in s.tasks)
    assert tids(plan.root_tasks) == {
        i for i, ps in enumerate(ref["task_parents"]) if not ps
    }
    return plan


def self_join_graph(p=4):
    """One producer shuffled twice into the same consumer (a self-join):
    each consumer task pulls the same producer tasks through two network
    ops, and must count each of them once."""
    g = OpGraph("self-join")
    src = g.create_data(p)
    g.set_input(src, [2.0] * p)
    rows = g.create_op(ResourceType.CPU, "rows").read(src).create(g.create_data(p))
    left = g.create_op(ResourceType.NETWORK, "left").read(rows.output).create(g.create_data(p))
    right = g.create_op(ResourceType.NETWORK, "right").read(rows.output).create(g.create_data(p))
    join = g.create_op(ResourceType.CPU, "join").read(left.output, right.output).create(
        g.create_data(p)
    )
    rows.to(left, DepType.SYNC)
    rows.to(right, DepType.SYNC)
    left.to(join, DepType.ASYNC)
    right.to(join, DepType.ASYNC)
    return g


def async_into_network_graph(p=3):
    """A network op fed one-to-one: each pull depends on one producer task,
    then the result is shuffled on by a sync edge."""
    g = OpGraph("async-net")
    src = g.create_data(p)
    g.set_input(src, [1.0] * p)
    a = g.create_op(ResourceType.CPU, "a").read(src).create(g.create_data(p))
    move = g.create_op(ResourceType.NETWORK, "move").read(a.output).create(g.create_data(p))
    b = g.create_op(ResourceType.CPU, "b").read(move.output).create(g.create_data(p))
    sh = g.create_op(ResourceType.NETWORK, "sh").read(b.output).create(g.create_data(2))
    c = g.create_op(ResourceType.CPU, "c").read(sh.output).create(g.create_data(2))
    a.to(move, DepType.ASYNC)
    move.to(b, DepType.ASYNC)
    b.to(sh, DepType.SYNC)
    sh.to(c, DepType.ASYNC)
    return g


def pull_and_shuffle_one_producer_graph(p=3):
    """Each consumer task pulls its own producer partition one-to-one and
    all producer partitions through a shuffle: the one-to-one parent is
    already a producer of the barrier and is counted once."""
    g = OpGraph("pull-and-shuffle")
    src = g.create_data(p)
    g.set_input(src, [1.0] * p)
    a = g.create_op(ResourceType.CPU, "a").read(src).create(g.create_data(p))
    move = g.create_op(ResourceType.NETWORK, "move").read(a.output).create(g.create_data(p))
    sh = g.create_op(ResourceType.NETWORK, "sh").read(a.output).create(g.create_data(p))
    c = g.create_op(ResourceType.CPU, "c").read(move.output, sh.output).create(g.create_data(p))
    a.to(move, DepType.ASYNC)
    a.to(sh, DepType.SYNC)
    move.to(c, DepType.ASYNC)
    sh.to(c, DepType.ASYNC)
    return g


def sync_into_cpu_graph(p=3, q=2):
    """A sync edge between CPU ops joins both groups into one task, which
    then feeds a shuffle."""
    g = OpGraph("sync-cpu")
    src = g.create_data(p)
    g.set_input(src, [1.0] * p)
    a = g.create_op(ResourceType.CPU, "a").read(src).create(g.create_data(p))
    b = g.create_op(ResourceType.CPU, "b").read(a.output).create(g.create_data(q))
    sh = g.create_op(ResourceType.NETWORK, "sh").read(b.output).create(g.create_data(4))
    c = g.create_op(ResourceType.CPU, "c").read(sh.output).create(g.create_data(4))
    a.to(b, DepType.SYNC)
    b.to(sh, DepType.SYNC)
    sh.to(c, DepType.ASYNC)
    return g


def shared_producer_task_graph(p=2):
    """A shuffle whose producers partly share the consumer's own task: the
    disk read of partition i sits in task i with pull i, so each pull waits
    on the other producers only (the task graph is cyclic; it is planned,
    never run)."""
    g = OpGraph("shared-producer")
    src = g.create_data(p)
    g.set_input(src, [1.0] * p)
    rd = g.create_op(ResourceType.DISK, "rd").read(src).create(g.create_data(p))
    sh = g.create_op(ResourceType.NETWORK, "sh").read(rd.output).create(g.create_data(p))
    c = g.create_op(ResourceType.CPU, "c").read(rd.output, sh.output).create(g.create_data(p))
    rd.to(c, DepType.ASYNC)
    rd.to(sh, DepType.SYNC)
    sh.to(c, DepType.ASYNC)
    return g


def async_fan_out_graph(p=3):
    """One producer pulled one-to-one by two network ops that feed separate
    consumers: each producer task has two one-to-one child tasks."""
    g = OpGraph("async-fan-out")
    src = g.create_data(p)
    g.set_input(src, [1.0] * p)
    a = g.create_op(ResourceType.CPU, "a").read(src).create(g.create_data(p))
    for name in ("x", "y"):
        move = g.create_op(ResourceType.NETWORK, f"move_{name}").read(a.output).create(
            g.create_data(p)
        )
        use = g.create_op(ResourceType.CPU, name).read(move.output).create(g.create_data(p))
        a.to(move, DepType.ASYNC)
        move.to(use, DepType.ASYNC)
    return g


@pytest.mark.parametrize(
    "build",
    [
        lambda: reduce_by_key_graph(3, 2),
        self_join_graph,
        async_into_network_graph,
        pull_and_shuffle_one_producer_graph,
        sync_into_cpu_graph,
        shared_producer_task_graph,
        async_fan_out_graph,
    ],
    ids=[
        "reduce-by-key", "self-join", "async-into-network", "pull-and-shuffle",
        "sync-into-cpu", "shared-producer", "async-fan-out",
    ],
)
def test_plan_matches_bipartite_reference(build):
    assert_matches_reference(build())


def test_workload_plans_match_bipartite_reference():
    for graph in _workload_graphs():
        assert_matches_reference(graph)


def test_self_join_credits_each_producer_task_once():
    plan = assert_matches_reference(self_join_graph(4))
    consumers = [t for t in plan.tasks if len(t.monotasks) == 3]
    assert len(consumers) == 4
    for t in consumers:
        assert t.remaining_parents == len(t.parents) == 4
        assert len(t.parent_barriers) == 1  # both pulls share one barrier
    assert len(plan.barriers) == 1


def test_one_to_one_parent_inside_a_barrier_counts_once():
    plan = assert_matches_reference(pull_and_shuffle_one_producer_graph(3))
    consumers = [t for t in plan.tasks if len(t.monotasks) == 3]
    for t in consumers:
        assert t.remaining_parents == len(t.parents) == 3
        assert not t.async_parents


def test_consumers_of_one_shuffle_share_barrier_and_parent_block():
    plan = plan_job(reduce_by_key_graph(5, 3))
    pulls = [m for m in plan.monotasks if m.is_network]
    first, second = pulls[0], pulls[1]
    assert first.task is not second.task
    assert first.parent_blocks[0] is second.parent_blocks[0]
    assert first.task.parent_barriers[0] is second.task.parent_barriers[0]
    (barrier,) = plan.barriers
    assert set(barrier.producers) == first.task.parents
    for producer in barrier.producers:
        assert producer.child_barriers == (barrier,)


def _shuffle_graph(p):
    g = OpGraph(f"shuffle-{p}")
    src = g.create_data(p)
    g.set_input(src, [1.0] * p)
    ser = g.create_op(ResourceType.CPU, "ser").read(src).create(g.create_data(p))
    sh = g.create_op(ResourceType.NETWORK, "sh").read(ser.output).create(g.create_data(p))
    de = g.create_op(ResourceType.CPU, "de").read(sh.output).create(g.create_data(p))
    ser.to(sh, DepType.SYNC)
    sh.to(de, DepType.ASYNC)
    return g


def test_planning_a_shuffle_allocates_nothing_per_edge():
    import tracemalloc

    def planned_bytes(p):
        graph = _shuffle_graph(p)
        tracemalloc.start()
        try:
            plan = plan_job(graph)
            size, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(plan.monotasks) == 3 * p
        return size

    plan_job(_shuffle_graph(4))  # warm any lazily built module state
    small, large = planned_bytes(64), planned_bytes(256)
    # 4x the partitions is 16x the producer x consumer edges: the plan's
    # retained memory must grow with the monotasks (~4x), not with the
    # edges (a per-edge list entry alone would make it ~12x)
    assert large < 5 * small


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_property_random_dags_match_bipartite_reference(data):
    """Random op DAGs of every resource type with sync and async edges
    (async edges only between equal parallelisms, as validation demands)."""
    g = OpGraph("random")
    n_ops = data.draw(st.integers(min_value=1, max_value=7))
    ops = []
    for k in range(n_ops):
        rtype = data.draw(st.sampled_from(list(ResourceType)))
        par = data.draw(st.integers(min_value=1, max_value=4))
        op = g.create_op(rtype, f"o{k}")
        picks = data.draw(st.lists(st.integers(0, max(k - 1, 0)), max_size=3, unique=True)) if k else []
        parents = []
        for i in picks:
            parent = ops[i]
            dep = data.draw(st.sampled_from([DepType.SYNC, DepType.ASYNC]))
            if dep is DepType.ASYNC and parent.parallelism != par:
                dep = DepType.SYNC
            parents.append((parent, dep))
        if parents:
            op.read(*(p.output for p, _dep in parents))
        else:
            src = g.create_data(par)
            g.set_input(src, [1.0] * par)
            op.read(src)
        op.create(g.create_data(par))
        for parent, dep in parents:
            parent.to(op, dep)
        ops.append(op)
    try:
        g.validate()
        from tests.dataflow.plan_reference import _collapse_cpu_chains

        _collapse_cpu_chains(g)
    except GraphError:
        return  # e.g. a fused CPU chain of mixed parallelism
    assert_matches_reference(g)
