"""``JobShape`` against the planner it split (frozen in ``plan_reference``).

Before the split, every graph ran validation, CPU-chain fusion, component
search, stage naming and the stamping analysis; :class:`JobShape` runs them
once per graph structure and :meth:`JobShape.plan` only builds and wires
the objects a job keeps.  The whole plan must come out as the frozen
planner's: monotask ids and ops, parent and child blocks, intra-task
parents and children, tasks and their sources, stage signatures and names,
barriers with their credits, one-to-one task links, and the static size
totals.  A shape compiled from one graph is applied to other graphs of the
same structure and different sizes, as service mode does with every
arrival of a job type.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import DepType, GraphError, JobShape, OpGraph, ResourceType, plan_job
from repro.execution.estimator import static_size_totals
from repro.simcore import derive_rng

from . import plan_reference


def _plan_structure(plan) -> dict:
    """Every field a plan sets, as ids, names and numbers."""
    ids = lambda ms: tuple(m.mt_id for m in ms)  # noqa: E731
    tids = lambda ts: tuple(t.task_id for t in ts)  # noqa: E731
    barrier = {id(b): k for k, b in enumerate(plan.barriers)}
    return {
        "monotasks": [
            (m.mt_id, [op.op_id for op in m.ops], m.rtype, m.partition_index,
             [ids(b) for b in m.parent_blocks], [ids(b) for b in m.child_blocks],
             ids(m.intra_task_parents), ids(m.intra_task_children), m.task.task_id)
            for m in plan.monotasks
        ],
        "tasks": [
            (t.task_id, ids(t.monotasks), ids(t.source_monotasks), t.stage.stage_id,
             [barrier[id(b)] for b in t.parent_barriers],
             [barrier[id(b)] for b in t.child_barriers],
             tids(t.async_parents), tids(t.async_children), t.remaining_parents)
            for t in plan.tasks
        ],
        "stages": [(s.stage_id, s.signature, s.name, tids(s.tasks)) for s in plan.stages],
        "barriers": [
            (tids(b.producers), tids(b.consumers), b.remaining, b.credit)
            for b in plan.barriers
        ],
        "roots": tids(plan.root_tasks),
    }


def assert_plans_like_reference(graph, shape=None):
    """``graph`` planned with ``shape`` (its own if None) equals the frozen
    planner's plan, and the static totals match to the bit."""
    plan = plan_job(graph, shape)
    assert plan.graph is graph
    assert _plan_structure(plan) == _plan_structure(plan_reference.plan_job(graph))
    assert all(op.graph is graph for m in plan.monotasks for op in m.ops)
    totals = static_size_totals(graph, plan.shape)
    want = plan_reference.static_size_totals(graph)
    assert {r: repr(v) for r, v in totals.items()} == {r: repr(v) for r, v in want.items()}
    return plan


# ----------------------------------------------------------------------
# hypothesis graphs: one structure, two sizings
# ----------------------------------------------------------------------
@st.composite
def _structures(draw):
    """A random op DAG as data: per op its resource, parallelism and
    parents (async only between equal parallelisms, as validation asks)."""
    ops = []
    for k in range(draw(st.integers(1, 7))):
        rtype = draw(st.sampled_from(list(ResourceType)))
        par = draw(st.integers(1, 4))
        picks = draw(st.lists(st.integers(0, k - 1), max_size=3, unique=True)) if k else []
        parents = []
        for i in picks:
            dep = draw(st.sampled_from([DepType.SYNC, DepType.ASYNC]))
            if dep is DepType.ASYNC and ops[i][1] != par:
                dep = DepType.SYNC
            parents.append((i, dep))
        ops.append((rtype, par, parents))
    return ops


def _build(structure, name, size):
    g = OpGraph(name)
    ops = []
    for k, (rtype, par, parents) in enumerate(structure):
        op = g.create_op(rtype, f"o{k}")
        if parents:
            op.read(*(ops[i].output for i, _dep in parents))
        else:
            src = g.create_data(par)
            g.set_input(src, [size * (j + 1) for j in range(par)])
            op.read(src)
        op.create(g.create_data(par))
        for i, dep in parents:
            ops[i].to(op, dep)
        ops.append(op)
    return g


@settings(max_examples=100, deadline=None)
@given(_structures(), st.floats(0.5, 50.0))
def test_a_shape_plans_every_graph_of_its_structure_as_the_reference(structure, size):
    first = _build(structure, "first", 1.0)
    try:
        shape = JobShape(first)
    except GraphError as err:  # e.g. a fused CPU chain of mixed parallelism
        with pytest.raises(GraphError) as want:
            plan_reference.plan_job(_build(structure, "first", 1.0))
        assert str(err) == str(want.value)
        return
    assert_plans_like_reference(first, shape)
    assert_plans_like_reference(_build(structure, "second", size), shape)


# ----------------------------------------------------------------------
# the workloads the benchmark plans
# ----------------------------------------------------------------------
def test_every_service_arrival_plans_as_the_reference():
    """All arrivals of the service benchmark's ``poisson-x1.0`` unit at
    seed 7, each planned with its job type's shape."""
    from bench.workloads import SERVICE_SCALE, SERVICE_UNIT
    from repro.experiments import fig_service
    from repro.service import ServiceJobType

    driver = fig_service.build_unit(SERVICE_SCALE, SERVICE_UNIT, seed=7)
    arrivals = driver.process.schedule(driver.cfg.horizon, 7)
    assert len(arrivals) == 616
    types = {jt: ServiceJobType(SERVICE_SCALE, jt) for jt in (1, 2)}
    for a in arrivals:
        graph, shape = types[a.job_type].build(a, 7)
        assert_plans_like_reference(graph, shape)
    first = {}
    for a in arrivals:
        first.setdefault(a.job_type, f"svc_t{a.tenant}_{a.index}")
    assert {jt: t.shape.name for jt, t in types.items()} == first


def test_setting1_jobs_plan_as_the_reference():
    from repro.experiments.common import SCALES
    from repro.experiments.fig8_fig9_fig10_synthetic import params_for
    from repro.workloads import synthetic_setting1

    for spec, _t in synthetic_setting1(params_for(SCALES["bench"]), n_jobs=2):
        plan = assert_plans_like_reference(spec.build_graph(derive_rng(7, spec.name)))
        assert len(plan.monotasks) == 2304


def test_own_component_and_producer_barriers_plan_as_the_reference():
    """A task that waits both on the other tasks of its own component (a
    sync edge severed inside it) and on a producer component: each task
    gets its own barrier row, and every barrier lists all its consumers."""
    p = 3
    g = OpGraph("own-and-producer")
    src, other = g.create_data(p), g.create_data(p)
    g.set_input(src, [1.0] * p)
    g.set_input(other, [2.0] * p)
    rd = g.create_op(ResourceType.DISK, "rd").read(src).create(g.create_data(p))
    x = g.create_op(ResourceType.CPU, "x").read(other).create(g.create_data(p))
    sh = g.create_op(ResourceType.NETWORK, "sh").read(rd.output).create(g.create_data(p))
    sh2 = g.create_op(ResourceType.NETWORK, "sh2").read(x.output).create(g.create_data(p))
    c = g.create_op(ResourceType.CPU, "c").read(rd.output, sh.output, sh2.output).create(
        g.create_data(p)
    )
    rd.to(c, DepType.ASYNC)
    rd.to(sh, DepType.SYNC)
    x.to(sh2, DepType.SYNC)
    sh.to(c, DepType.ASYNC)
    sh2.to(c, DepType.ASYNC)
    plan = assert_plans_like_reference(g)
    rows = [t.parent_barriers for t in plan.tasks if len(t.parent_barriers) == 2]
    assert len(rows) == p and len({id(row[0]) for row in rows} | {id(row[1]) for row in rows}) == p + 1


# ----------------------------------------------------------------------
# structure checks
# ----------------------------------------------------------------------
def _shuffle(name, p_in=3, p_out=2, sizes=None):
    g = OpGraph(name)
    src = g.create_data(p_in)
    g.set_input(src, sizes or [1.0] * p_in)
    ser = g.create_op(ResourceType.CPU, "ser").read(src).create(g.create_data(p_in))
    sh = g.create_op(ResourceType.NETWORK, "sh").read(ser.output).create(g.create_data(p_out))
    ser.to(sh, DepType.SYNC)
    return g


@pytest.mark.parametrize(
    "other",
    [
        lambda: _shuffle("other", p_out=3),  # another parallelism
        lambda: _shuffle("other", p_in=2),
        lambda: OpGraph("other"),  # no ops
    ],
    ids=["parallelism", "input-parallelism", "empty"],
)
def test_a_shape_refuses_a_graph_of_another_structure(other):
    shape = JobShape(_shuffle("mine"))
    with pytest.raises(GraphError, match="OpGraph 'other' does not have the structure of 'mine'"):
        shape.plan(other())


def test_a_shape_refuses_other_edges_names_and_resources():
    shape = JobShape(_shuffle("mine"))
    renamed = _shuffle("renamed")
    renamed.ops[1].name = "pull"
    pipelined = _shuffle("pipelined", p_out=3)
    pipelined.ops[0].out_edges[0] = (pipelined.ops[1], DepType.ASYNC)
    for graph in (renamed, pipelined):
        with pytest.raises(GraphError, match=f"OpGraph {graph.name!r}"):
            shape.plan(graph)
    sized = _shuffle("sized", sizes=[5.0, 6.0, 7.0])
    assert len(shape.plan(sized).monotasks) == 5


def test_plan_job_compiles_a_shape_per_call():
    graph = _shuffle("g")
    first, second = plan_job(graph), plan_job(graph)
    assert first.shape is not second.shape
    assert first.shape.key == second.shape.key == JobShape(graph).key
