"""Tests for the metadata/data store."""

import pytest

from repro.dataflow import OpGraph, ResourceType
from repro.execution import MetadataStore


def test_load_inputs_and_queries():
    g = OpGraph()
    d = g.create_data(3, "in")
    g.set_input(d, [10.0, 20.0, 30.0])
    meta = MetadataStore()
    meta.load_inputs(d)
    assert meta.get(d, 0).size_mb == 10.0
    assert meta.get(d, 1).location is None
    assert meta.find(d, 2) is not None


def test_get_missing_partition_raises():
    g = OpGraph()
    d = g.create_data(2, "x")
    meta = MetadataStore()
    with pytest.raises(KeyError):
        meta.get(d, 0)


def test_find_gives_the_record_or_none():
    g = OpGraph()
    d = g.create_data(2, "x")
    meta = MetadataStore()
    meta.record(d, 0, 5.0, location=1)
    assert meta.find(d, 1) is None
    assert meta.find(d, 0) is meta.get(d, 0)
    with pytest.raises(KeyError, match="partition 1 of dataset 'x' not recorded yet"):
        meta.get(d, 1)


def test_record_size_only():
    g = OpGraph()
    d = g.create_data(2)
    meta = MetadataStore()
    meta.record(d, 0, 12.5, location=3)
    rec = meta.get(d, 0)
    assert rec.size_mb == 12.5
    assert rec.location == 3


def _shard_sizes(meta, net):
    """The size every output partition of ``net`` pulls from each source."""
    return [meta.pull_sources(net, shard, num_machines=4).sizes for shard in range(4)]


def test_record_sharded_payload_sets_shard_sizes():
    d, net = _shuffle(p_in=1)
    d.graph.set_sizes(d, [3.0], shard_sizes=[{0: 2.0, 2: 1.0}])
    meta = MetadataStore()
    meta.record(d, 0, 3.0, location=0)
    assert meta.get(d, 0).size_mb == 3.0
    assert _shard_sizes(meta, net) == [(2.0,), (0.0,), (1.0,), (0.0,)]


def test_shard_size_uniform_and_weighted():
    for weights, expected in ((None, [25.0] * 4), ([1.0, 3.0, 0.0, 0.0], [25.0, 75.0, 0.0, 0.0])):
        d, net = _shuffle(p_in=1, weights=weights)
        meta = MetadataStore()
        meta.record(d, 0, 100.0, location=0)
        assert _shard_sizes(meta, net) == [(size,) for size in expected]


def test_pull_sources_locations_and_shards():
    g = OpGraph()
    src = g.create_data(2, "msg")
    net = g.create_op(ResourceType.NETWORK, "sh").read(src).create(g.create_data(2))
    meta = MetadataStore()
    meta.record(src, 0, 40.0, location=0)
    meta.record(src, 1, 60.0, location=1)
    sources = meta.pull_sources(net, 0, num_machines=4)
    assert sources == [(0, 20.0), (1, 30.0)]


def test_pull_sources_external_input_round_robin():
    g = OpGraph()
    src = g.create_data(3, "in")
    g.set_input(src, [30.0, 30.0, 30.0])
    net = g.create_op(ResourceType.NETWORK, "sh").read(src).create(g.create_data(1))
    meta = MetadataStore()
    meta.load_inputs(src)
    sources = meta.pull_sources(net, 0, num_machines=2)
    # locations alternate 0,1,0 for the 'HDFS' partitions
    assert [loc for loc, _s in sources] == [0, 1, 0]
    assert all(s == 30.0 for _l, s in sources)


# ----------------------------------------------------------------------
# shared PullSets
# ----------------------------------------------------------------------
def _shuffle(p_in=3, p_out=4, weights=None):
    g = OpGraph()
    src = g.create_data(p_in, "msg")
    net = g.create_op(ResourceType.NETWORK, "sh").read(src).create(g.create_data(p_out))
    if weights is not None:
        net.set_shard_weights(weights)
    return src, net


def _store(src):
    meta = MetadataStore()
    for i in range(src.num_partitions):
        meta.record(src, i, 10.0 * (i + 1), location=i % 2)
    return meta


@pytest.mark.parametrize("case", ["uniform", "weighted", "dict-payload"])
def test_cached_pull_equals_a_fresh_build(case):
    weights = [1.0, 2.0, 3.0, 4.0] if case == "weighted" else None
    src, net = _shuffle(weights=weights)
    if case == "dict-payload":
        src.graph.set_sizes(
            src, [10.0, 20.0, 30.0], shard_sizes=[{0: 1.0, 2: 2.0}, {1: 1.0}, {0: 3.0}]
        )
    meta = _store(src)
    first = [meta.pull_sources(net, k, 4) for k in range(4)]
    again = [meta.pull_sources(net, k, 4) for k in range(4)]
    for k in range(4):
        fresh = _store(src).pull_sources(net, k, 4)
        assert first[k] == fresh and again[k] == fresh
        assert first[k].total_mb == fresh.total_mb
        assert isinstance(fresh.total_mb, float)
    if case != "uniform":
        assert first[0] != first[1]


def test_uniform_partitions_share_one_pullset():
    src, net = _shuffle()
    meta = _store(src)
    pull = meta.pull_sources(net, 0, 4)
    assert meta.pull_sources(net, 3, 4) is pull
    assert pull == [(0, 2.5), (1, 5.0), (0, 7.5)]


def test_pull_follows_a_re_recorded_partition():
    src, net = _shuffle()
    meta = _store(src)
    before = meta.pull_sources(net, 0, 4)
    assert meta.invalidate_machine(1) == [(src.data_id, 1)]
    meta.record(src, 1, 20.0, location=3)
    after = meta.pull_sources(net, 0, 4)
    assert after is not before
    assert after == [(0, 2.5), (3, 5.0), (0, 7.5)]


def test_empty_pull_total_is_float():
    g = OpGraph()
    net = g.create_op(ResourceType.NETWORK, "sh").create(g.create_data(2))
    pull = MetadataStore().pull_sources(net, 0, 4)
    assert len(pull) == 0
    assert isinstance(pull.total_mb, float)


def test_uniform_pull_built_once_per_job(monkeypatch):
    from repro.cluster import Cluster, ClusterSpec
    from repro.dataflow import DepType
    from repro.execution import metadata as metadata_mod

    from .helpers import run_job

    builds = []

    class CountingPullSet(metadata_mod.PullSet):
        __slots__ = ()

        def __init__(self, machines, sizes):
            super().__init__(machines, sizes)
            builds.append(self)

    monkeypatch.setattr(metadata_mod, "PullSet", CountingPullSet)
    g = OpGraph("two-shuffles")
    src = g.create_data(6, "src")
    g.set_input(src, [10.0] * 6)
    ser = g.create_op(ResourceType.CPU, "ser").read(src).create(g.create_data(6))
    sh1 = g.create_op(ResourceType.NETWORK, "sh1").read(ser.output).create(g.create_data(4))
    mid = g.create_op(ResourceType.CPU, "mid").read(sh1.output).create(g.create_data(4))
    sh2 = g.create_op(ResourceType.NETWORK, "sh2").read(mid.output).create(g.create_data(5))
    end = g.create_op(ResourceType.CPU, "end").read(sh2.output).create(g.create_data(5))
    ser.to(sh1, DepType.SYNC)
    sh1.to(mid, DepType.ASYNC)
    mid.to(sh2, DepType.SYNC)
    sh2.to(end, DepType.ASYNC)
    cluster = Cluster(ClusterSpec.small(num_machines=3, cores=4, core_rate_mbps=10.0))
    job, jm, _cluster, _backend = run_job(g, cluster)
    nets = [m for m in job.plan.monotasks if m.rtype is ResourceType.NETWORK]
    assert len(nets) == 9
    assert len(builds) == 2
    assert {id(m.sources) for m in nets} == {id(b) for b in builds}
    # the finished job dropped its shared pulls: a new pull rebuilds
    assert jm.metadata.pull_sources(sh1, 0, 3) is not nets[0].sources
    assert len(builds) == 3
