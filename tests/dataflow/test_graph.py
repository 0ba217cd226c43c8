"""Tests for the OpGraph primitives."""

import pytest

from repro.dataflow import DepType, GraphError, OpGraph, ResourceType


def test_create_data_and_op():
    g = OpGraph("j")
    d = g.create_data(4, "in")
    op = g.create_op(ResourceType.CPU, "map")
    op.read(d).create(g.create_data(4, "out"))
    assert d.num_partitions == 4
    assert op.parallelism == 4
    assert op.output.name == "out"


def test_zero_partition_dataset_rejected():
    g = OpGraph()
    with pytest.raises(GraphError):
        g.create_data(0)


@pytest.mark.parametrize("count", [2.0, 2.5, float("nan"), "2", True])
def test_non_integer_partition_count_rejected_naming_the_dataset(count):
    g = OpGraph()
    with pytest.raises(GraphError, match="'shuffled'.*integer partition count"):
        g.create_data(count, "shuffled")


@pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf"), float("-inf")])
def test_non_finite_or_negative_input_size_rejected_naming_the_partition(bad):
    g = OpGraph()
    d = g.create_data(2, "lines")
    with pytest.raises(GraphError, match="'lines' partition 0"):
        g.set_input(d, [bad, 1.0])
    with pytest.raises(GraphError, match="'lines' partition 1"):
        g.set_input(d, [1.0, bad])
    assert not d.is_input
    g.set_input(d, [0.0, 1.0])  # an empty partition is fine
    assert d.sizes == [0.0, 1.0]


def test_dataset_single_producer():
    g = OpGraph()
    d = g.create_data(2)
    g.create_op(ResourceType.CPU).create(d)
    with pytest.raises(GraphError):
        g.create_op(ResourceType.CPU).create(d)


def test_udf_only_on_cpu_ops():
    from repro.api.payloads import set_udf

    g = OpGraph()
    with pytest.raises(GraphError):
        set_udf(g.create_op(ResourceType.NETWORK), lambda ins, i: ins)
    set_udf(g.create_op(ResourceType.CPU), lambda ins, i: ins)  # fine


def test_cpu_work_factor_validation():
    g = OpGraph()
    op = g.create_op(ResourceType.CPU)
    op.set_cpu_work_factor(2.5)
    assert op.cpu_work_factor == 2.5
    with pytest.raises(GraphError):
        op.set_cpu_work_factor(0.0)
    with pytest.raises(GraphError):
        g.create_op(ResourceType.DISK).set_cpu_work_factor(2.0)


def test_self_edge_rejected():
    g = OpGraph()
    op = g.create_op(ResourceType.CPU)
    with pytest.raises(GraphError):
        op.to(op)


def test_cross_graph_edge_rejected():
    g1, g2 = OpGraph(), OpGraph()
    a = g1.create_op(ResourceType.CPU)
    b = g2.create_op(ResourceType.CPU)
    with pytest.raises(GraphError):
        a.to(b)
    with pytest.raises(GraphError):
        a.read(g2.create_data(1))


def test_cycle_detection():
    g = OpGraph()
    d = g.create_data(2)
    a = g.create_op(ResourceType.CPU).read(d).create(g.create_data(2))
    b = g.create_op(ResourceType.CPU).read(a.output).create(g.create_data(2))
    a.to(b, DepType.ASYNC)
    b.to(a, DepType.ASYNC)
    g.set_input(d, [1.0, 1.0])
    with pytest.raises(GraphError):
        g.validate()


def test_validate_unproduced_read():
    g = OpGraph()
    orphan = g.create_data(2)
    g.create_op(ResourceType.CPU).read(orphan).create(g.create_data(2))
    with pytest.raises(GraphError):
        g.validate()


def test_validate_async_parallelism_mismatch():
    g = OpGraph()
    d = g.create_data(4)
    g.set_input(d, [1.0] * 4)
    a = g.create_op(ResourceType.CPU).read(d).create(g.create_data(4))
    b = g.create_op(ResourceType.CPU).read(a.output).create(g.create_data(2))
    a.to(b, DepType.ASYNC)
    with pytest.raises(GraphError):
        g.validate()


def test_set_input_validation():
    g = OpGraph()
    d = g.create_data(2)
    with pytest.raises(GraphError):
        g.set_input(d, [1.0])  # wrong length
    with pytest.raises(GraphError):
        g.set_input(d, [1.0, 2.0], shard_sizes=[{0: 1.0}])  # shard-sizes length mismatch
    g.set_input(d, [1.0, 2.0])
    assert d.is_input
    produced = g.create_data(2)
    g.create_op(ResourceType.CPU).create(produced)
    with pytest.raises(GraphError):
        g.set_input(produced, [1.0, 2.0])
    with pytest.raises(GraphError):
        g.create_op(ResourceType.CPU).create(d)  # cannot create an input


def test_topological_order():
    g = OpGraph()
    d = g.create_data(2)
    g.set_input(d, [1.0, 1.0])
    a = g.create_op(ResourceType.CPU, "a").read(d).create(g.create_data(2))
    b = g.create_op(ResourceType.NETWORK, "b").read(a.output).create(g.create_data(2))
    c = g.create_op(ResourceType.CPU, "c").read(b.output).create(g.create_data(2))
    a.to(b, DepType.SYNC)
    b.to(c, DepType.ASYNC)
    order = [op.name for op in g.topological_order()]
    assert order.index("a") < order.index("b") < order.index("c")


def test_roots():
    g = OpGraph()
    d = g.create_data(2)
    g.set_input(d, [1.0, 1.0])
    a = g.create_op(ResourceType.CPU, "a").read(d).create(g.create_data(2))
    b = g.create_op(ResourceType.CPU, "b").read(a.output).create(g.create_data(2))
    a.to(b, DepType.ASYNC)
    assert g.roots() == [a]


def test_op_without_reads_or_creates_has_no_parallelism():
    g = OpGraph()
    op = g.create_op(ResourceType.CPU)
    with pytest.raises(GraphError):
        _ = op.parallelism
