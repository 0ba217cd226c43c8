"""Tests for the Spark-like Dataset API (real data on the simulated cluster)."""

import pytest

from repro.api import UrsaContext
from repro.cluster import ClusterSpec


@pytest.fixture
def ctx():
    return UrsaContext(ClusterSpec.small(num_machines=2, cores=4))


def test_parallelize_and_collect_roundtrip(ctx):
    data = list(range(20))
    assert sorted(ctx.parallelize(data, 4).collect()) == data


def test_parallelize_rejects_bad_partitions(ctx):
    with pytest.raises(ValueError):
        ctx.parallelize([1, 2], partitions=0)


_WIDE_OPS = {
    "parallelize": lambda ctx, p: ctx.parallelize([(1, 2)], partitions=p),
    "reduce_by_key": lambda ctx, p: ctx.parallelize([(1, 2)], 2).reduce_by_key(max, partitions=p),
    "group_by_key": lambda ctx, p: ctx.parallelize([(1, 2)], 2).group_by_key(partitions=p),
    "join": lambda ctx, p: (lambda d: d.join(d, partitions=p))(ctx.parallelize([(1, 2)], 2)),
}


@pytest.mark.parametrize("partitions", [0, 2.5, "2", -1])
@pytest.mark.parametrize("op", sorted(_WIDE_OPS))
def test_bad_partition_count_is_rejected_naming_it(ctx, op, partitions):
    """Only ``None`` means "same as the input"; 0 is not "not given"."""
    with pytest.raises(ValueError, match="partitions must be a positive integer"):
        _WIDE_OPS[op](ctx, partitions)


def test_map(ctx):
    out = ctx.parallelize(range(10), 3).map(lambda x: x * x).collect()
    assert sorted(out) == [x * x for x in range(10)]


def test_flat_map(ctx):
    out = ctx.parallelize(["ab", "c"], 2).flat_map(list).collect()
    assert sorted(out) == ["a", "b", "c"]


def test_filter(ctx):
    out = ctx.parallelize(range(20), 4).filter(lambda x: x % 2 == 0).collect()
    assert sorted(out) == list(range(0, 20, 2))


def test_map_partitions(ctx):
    parts = ctx.parallelize(range(12), 3).map_partitions(lambda p: [sum(p)]).collect()
    assert sum(parts) == sum(range(12))
    assert len(parts) == 3


def test_chained_narrow_ops_fuse_into_one_stage(ctx):
    ds = (
        ctx.parallelize(range(10), 2)
        .map(lambda x: x + 1)
        .filter(lambda x: x > 3)
        .map(lambda x: x * 2)
    )
    from repro.dataflow import plan_job

    plan = plan_job(ds.graph)
    assert len(plan.stages) == 1  # everything fused
    assert sorted(ds.collect()) == [2 * x for x in range(4, 11)]


def test_reduce_by_key_wordcount(ctx):
    words = "a b a c b a".split()
    out = (
        ctx.parallelize(words, 3)
        .map(lambda w: (w, 1))
        .reduce_by_key(lambda x, y: x + y, partitions=2)
        .collect()
    )
    assert dict(out) == {"a": 3, "b": 2, "c": 1}


def test_group_by_key(ctx):
    pairs = [(1, "x"), (2, "y"), (1, "z")]
    out = ctx.parallelize(pairs, 2).group_by_key(partitions=2).collect()
    grouped = {k: sorted(v) for k, v in out}
    assert grouped == {1: ["x", "z"], 2: ["y"]}


def test_key_by(ctx):
    out = ctx.parallelize([3, 4], 1).key_by(lambda x: x % 2).collect()
    assert sorted(out) == [(0, 4), (1, 3)]


def test_join(ctx):
    left = ctx.parallelize([(1, "a"), (2, "b"), (3, "c")], 2)
    right = ctx.parallelize([(1, 10), (3, 30), (4, 40)], 2, graph=left.graph)
    out = left.join(right, partitions=2).collect()
    assert sorted(out) == [(1, ("a", 10)), (3, ("c", 30))]


def test_join_requires_same_graph(ctx):
    left = ctx.parallelize([(1, "a")], 1)
    right = ctx.parallelize([(1, 2)], 1)  # separate graph
    with pytest.raises(ValueError):
        left.join(right)


def test_count_and_sum_and_reduce(ctx):
    ds = ctx.parallelize(range(10), 2)
    assert ds.count() == 10
    ds2 = ctx.parallelize(range(10), 2)
    assert ds2.sum() == 45
    ds3 = ctx.parallelize([1, 2, 3], 2)
    assert ds3.reduce(lambda a, b: a * b) == 6


def test_reduce_empty_raises(ctx):
    ds = ctx.parallelize([], 2)
    with pytest.raises(ValueError):
        ds.reduce(lambda a, b: a + b)


def test_collect_partitions_structure(ctx):
    parts = ctx.parallelize(range(8), 4).map(lambda x: x).collect_partitions()
    assert len(parts) == 4
    assert sorted(x for p in parts for x in p) == list(range(8))


def test_broadcast_wrapper(ctx):
    factor = ctx.broadcast(10)
    out = ctx.parallelize([1, 2], 1).map(lambda x: x * factor.value).collect()
    assert sorted(out) == [10, 20]


def test_multiple_jobs_on_one_context(ctx):
    a = ctx.parallelize(range(5), 2).map(lambda x: x + 1).collect()
    b = ctx.parallelize(range(5), 2).map(lambda x: x - 1).collect()
    assert sorted(a) == list(range(1, 6))
    assert sorted(b) == list(range(-1, 4))
    assert len(ctx.system.completed_jobs) == 2


def test_simulated_time_advances_with_work(ctx):
    before = ctx.cluster.sim.now
    ctx.parallelize(range(100), 4).map(lambda x: x).collect()
    assert ctx.cluster.sim.now > before
