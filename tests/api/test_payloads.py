"""Tests for the real-data evaluator that runs API jobs' UDFs before they
are submitted, and the sizes it hands the simulator."""

import pytest

from repro.api import UrsaContext
from repro.api.payloads import DEFAULT_MB_PER_ELEMENT as E
from repro.api.payloads import estimate_payload_mb, evaluate, partitions, set_input, set_udf
from repro.cluster import ClusterSpec
from repro.dataflow import DepType, GraphError, OpGraph, ResourceType


def test_estimate_payload_mb():
    assert estimate_payload_mb(None) == 0.0
    assert estimate_payload_mb([1, 2, 3]) == 3 * E
    assert estimate_payload_mb({0: [1, 2], 1: [3]}) == pytest.approx(3 * E)
    assert estimate_payload_mb((1, 2)) == 2 * E
    assert estimate_payload_mb(42) == E


def test_record_list_payload_sets_size():
    g = OpGraph()
    src = g.create_data(1, "src")
    set_input(src, [[1, 2]])
    out = g.create_data(1, "out")
    set_udf(g.create_op(ResourceType.CPU).read(src).create(out), lambda ins, i: ins[0] * 2)
    evaluate(g)
    assert out.sizes == [4 * E]
    assert out.shard_sizes is None
    assert partitions(out) == [[1, 2, 1, 2]]


def test_dict_partitions_set_shard_sizes():
    g = OpGraph()
    src = g.create_data(1, "src")
    set_input(src, [[1, 2, 3]])
    msg = g.create_data(1, "msg")
    set_udf(
        g.create_op(ResourceType.CPU).read(src).create(msg),
        lambda ins, i: {0: ins[0][:2], 2: ins[0][2:]},
    )
    evaluate(g)
    assert msg.sizes == [pytest.approx(3 * E)]
    assert msg.shard_sizes == [{0: 2 * E, 2: E}]


def test_input_partitions_weigh_at_least_a_floor():
    g = OpGraph()
    src = g.create_data(2, "src")
    set_input(src, [[], ["a"]])
    assert src.is_input
    assert src.sizes == [1e-6, E]
    with pytest.raises(GraphError, match="'src'"):
        set_input(src, [[1]])


def _shuffle(values):
    g = OpGraph()
    src = g.create_data(len(values), "msg")
    set_input(src, values)
    out = g.create_data(2, "out")
    g.create_op(ResourceType.NETWORK, "sh").read(src).create(out)
    evaluate(g)
    return out


def test_network_gather_none_without_dict_payloads():
    out = _shuffle([[1], [2, 3], [4]])
    assert partitions(out) == [[], []]
    assert out.sizes is None  # the simulator keeps the pulled size
    out = _shuffle([{0: [1], 2: [2, 3]}, [9], {0: [5, 6]}])
    assert partitions(out) == [[1, 5, 6], []]
    assert out.sizes == [3 * E, 0.0]


def test_real_udf_execution_wordcount_style():
    """A real map + shuffle + reduce on payloads computes correct results."""
    g = OpGraph("wc")
    p_out = 2
    src = g.create_data(2, "src")
    set_input(src, [["a", "b", "a"], ["b", "b", "c"]])
    msg = g.create_data(2, "msg")
    out = g.create_data(p_out, "shuffled")
    res = g.create_data(p_out, "res")

    def shard_words(ins, pidx):
        shards = {}
        for word in ins[0]:
            shards.setdefault(hash(word) % p_out, []).append((word, 1))
        return shards

    def count(ins, pidx):
        acc = {}
        for word, n in ins[0]:
            acc[word] = acc.get(word, 0) + n
        return sorted(acc.items())

    ser = set_udf(g.create_op(ResourceType.CPU, "ser").read(src).create(msg), shard_words)
    sh = g.create_op(ResourceType.NETWORK, "sh").read(msg).create(out)
    de = set_udf(g.create_op(ResourceType.CPU, "de").read(out).create(res), count)
    ser.to(sh, DepType.SYNC)
    sh.to(de, DepType.ASYNC)

    ctx = UrsaContext(ClusterSpec.small(num_machines=2, cores=4))
    jm = ctx.run_graph(g)
    counted = {}
    for part in ctx.fetch_partitions(jm, res):
        for word, n in part:
            counted[word] = counted.get(word, 0) + n
    assert counted == {"a": 2, "b": 3, "c": 1}
    # the simulated job recorded the measured sizes
    assert [jm.metadata.get(res, i).size_mb for i in range(p_out)] == res.sizes
