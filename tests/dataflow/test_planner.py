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
def _workload_plans():
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
    return [plan_job(spec.build_graph(derive_rng(7, spec.name))) for spec in specs]


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
