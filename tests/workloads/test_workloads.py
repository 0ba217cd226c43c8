"""Tests for the workload generators and the JobSpec compiler."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.dataflow import ResourceType, plan_job
from repro.scheduler import UrsaSystem
from repro.simcore import derive_rng
from repro.workloads import (
    JobSpec,
    StageSpec,
    SyntheticParams,
    expected_jcts,
    make_cc_job,
    make_kmeans_job,
    make_lr_job,
    make_pagerank_job,
    make_synthetic_job,
    make_tpch_job,
    mixed_workload,
    submit_workload,
    synthetic_setting1,
    synthetic_setting2,
    tpch2_workload,
    tpch_workload,
    tpcds_workload,
)


def rng():
    return derive_rng(0, "test")


# ----------------------------------------------------------------------
# StageSpec / JobSpec validation and compilation
# ----------------------------------------------------------------------
def test_stage_spec_validation():
    with pytest.raises(ValueError):
        StageSpec(parallelism=0)
    with pytest.raises(ValueError):
        StageSpec(parallelism=1, expand=0.0)
    with pytest.raises(ValueError):
        StageSpec(parallelism=1, source_mb=-1.0)


def test_job_spec_validation_catches_bad_links():
    with pytest.raises(ValueError):  # forward shuffle parent
        JobSpec("x", [StageSpec(2, source_mb=1.0), StageSpec(2, shuffle_parents=(5,))], 100.0).validate()
    with pytest.raises(ValueError):  # no inputs
        JobSpec("x", [StageSpec(2)], 100.0).validate()
    with pytest.raises(ValueError):  # narrow parallelism mismatch
        JobSpec(
            "x",
            [StageSpec(2, source_mb=1.0), StageSpec(3, narrow_parent=0)],
            100.0,
        ).validate()


def test_build_graph_compiles_and_plans():
    spec = JobSpec(
        "j",
        [
            StageSpec(4, source_mb=100.0),
            StageSpec(2, shuffle_parents=(0,), expand=0.5),
            StageSpec(2, shuffle_parents=(1,), expand=0.05, write_output_mb=1.0),
        ],
        requested_memory_mb=512.0,
    )
    g = spec.build_graph(rng())
    plan = plan_job(g)
    rtypes = {m.rtype for m in plan.monotasks}
    assert rtypes == {ResourceType.CPU, ResourceType.NETWORK, ResourceType.DISK}
    assert len(plan.stages) >= 3
    assert spec.depth == 3


def test_build_graph_runs_on_ursa():
    spec = JobSpec(
        "j",
        [StageSpec(4, source_mb=200.0), StageSpec(4, shuffle_parents=(0,))],
        requested_memory_mb=512.0,
    )
    cluster = Cluster(ClusterSpec.small(num_machines=2, cores=4))
    ursa = UrsaSystem(cluster)
    jobs = submit_workload(ursa, [(spec, 0.0)])
    ursa.run(max_events=500_000)
    assert jobs[0].done
    assert jobs[0].memory_accuracy == spec.memory_accuracy


def test_skew_produces_heterogeneous_partitions():
    spec = JobSpec(
        "skewed", [StageSpec(16, source_mb=1600.0, skew_sigma=0.8)], 512.0
    )
    g = spec.build_graph(rng())
    sizes = g.datasets[0].sizes
    assert max(sizes) > 1.5 * min(sizes)
    assert sum(sizes) == pytest.approx(1600.0, rel=0.5)


def test_build_graph_sizes_a_request_of_a_job_type():
    """``name`` and ``source_mb`` give a request its own name and input
    volumes; the skew comes from the same stream as the spec's own build."""
    spec = JobSpec(
        "type",
        [StageSpec(4, source_mb=100.0, skew_sigma=0.3),
         StageSpec(3, source_mb=10.0, from_disk=False),
         StageSpec(2, shuffle_parents=(0, 1), skew_sigma=0.3)],
        512.0,
    )
    own = spec.build_graph(rng())
    sized = spec.build_graph(rng(), name="request-9", source_mb=(200.0, 30.0))
    assert (own.name, sized.name) == ("type", "request-9")
    own_sizes = [d.sizes for d in own.datasets if d.sizes]
    sized_sizes = [d.sizes for d in sized.datasets if d.sizes]
    assert sized_sizes[0] == [2 * s for s in own_sizes[0]]
    assert sized_sizes[1] == pytest.approx([3 * s for s in own_sizes[1]])
    assert [op.shard_weights for op in sized.ops] == [op.shard_weights for op in own.ops]
    for bad in [(200.0,), (200.0, 30.0, 1.0), (200.0, 0.0), (200.0, float("nan"))]:
        with pytest.raises(ValueError, match="source_mb"):
            spec.build_graph(rng(), source_mb=bad)


def test_generator_determinism():
    a = tpch_workload(n_jobs=5, seed=3, scale=0.01)
    b = tpch_workload(n_jobs=5, seed=3, scale=0.01)
    assert [j.name for j, _t in a] == [j.name for j, _t in b]
    assert [j.requested_memory_mb for j, _t in a] == [j.requested_memory_mb for j, _t in b]
    c = tpch_workload(n_jobs=5, seed=4, scale=0.01)
    assert [j.name for j, _t in a] != [j.name for j, _t in c]


def test_tpch_workload_statistics():
    wl = tpch_workload(n_jobs=100, seed=1, scale=0.01)
    assert len(wl) == 100
    times = [t for _j, t in wl]
    assert times == [i * 5.0 for i in range(100)]  # 5 s arrivals (§5.1.1)
    depths = [j.depth for j, _t in wl]
    assert min(depths) >= 2 and max(depths) <= 11


def test_tpch_job_scales_with_dataset_size():
    small = make_tpch_job(1, 200.0, scale=0.01, seed=5)
    big = make_tpch_job(1, 1000.0, scale=0.01, seed=5)
    assert big.total_source_mb() == pytest.approx(5 * small.total_source_mb())


def test_tpcds_deeper_dags():
    wl = tpcds_workload(n_jobs=60, seed=2, scale=0.01)
    depths = [j.depth for j, _t in wl]
    assert min(depths) >= 5
    assert max(depths) > 12
    mean_depth = sum(depths) / len(depths)
    assert 7 <= mean_depth <= 14  # paper: mean 9


def test_ml_job_shapes():
    lr = make_lr_job(data_mb=100.0, iterations=3, parallelism=4)
    assert lr.category == "ml"
    assert len(lr.stages) == 1 + 2 * 3
    # iterations after the first read the cache
    assert any(s.reads_cache_of == 0 for s in lr.stages)
    km = make_kmeans_job(data_mb=100.0, iterations=2, parallelism=4)
    g = km.build_graph(rng())
    plan = plan_job(g)
    assert plan  # compiles


def test_graph_job_message_decay_for_cc():
    cc = make_cc_job(graph_mb=100.0, iterations=4, parallelism=4)
    gens = [s for s in cc.stages if s.reads_cache_of == 0 or s.narrow_parent == 0]
    expands = [s.expand for s in cc.stages[1::2]]
    assert expands == sorted(expands, reverse=True)  # geometric decay
    pr = make_pagerank_job(graph_mb=100.0, iterations=3, parallelism=4)
    pr_expands = {s.expand for s in pr.stages[1::2]}
    assert len(pr_expands) == 1  # flat


def test_mixed_workload_composition():
    wl = mixed_workload(scale=0.01, parallelism=40)
    cats = [j.category for j, _t in wl]
    assert cats.count("graph") == 2
    assert cats.count("ml") == 4
    assert cats.count("tpch") == 32
    assert len(wl) == 38


def test_tpch2_depth():
    wl = tpch2_workload(n_jobs=25, scale=0.01)
    assert len(wl) == 25
    mean_depth = sum(j.depth for j, _t in wl) / 25
    assert mean_depth >= 5.0  # deeper selection


def test_synthetic_params_and_jobs():
    params = SyntheticParams(
        total_cores=16, core_rate_mbps=25.0, net_mbps_per_machine=1250.0,
        machines=2, stage_seconds=8.0,
    )
    t1 = make_synthetic_job(params, 1, 0, "t1")
    t2 = make_synthetic_job(params, 2, 0, "t2")
    assert len(t1.stages) == 5
    assert t2.stages[0].source_mb < t1.stages[0].source_mb
    with pytest.raises(ValueError):
        make_synthetic_job(params, 3, 0, "bad")
    s1 = synthetic_setting1(params, n_jobs=4)
    assert len(s1) == 4
    times1 = [t for _j, t in s1]
    assert times1 == sorted(times1)
    s2 = synthetic_setting2(params, n_pairs=3)
    assert len(s2) == 6
    assert [j.name[:5] for j, _t in s2] == ["type1", "type2"] * 3


def test_expected_jcts_srjf_orders_small_first():
    params = SyntheticParams(
        total_cores=16, core_rate_mbps=25.0, net_mbps_per_machine=1250.0,
        machines=2, stage_seconds=8.0,
    )
    types = [1, 2, 1, 2]
    srjf = expected_jcts(params, types, policy="srjf")
    # type-2 jobs (indices 1, 3) are expected to finish first under SRJF
    assert max(srjf[1], srjf[3]) < min(srjf[0], srjf[2])
    with pytest.raises(ValueError):
        expected_jcts(params, types, policy="fifo")


def test_expected_jcts_pairwise_math():
    params = SyntheticParams(
        total_cores=16, core_rate_mbps=25.0, net_mbps_per_machine=1250.0,
        machines=2, stage_seconds=8.0,
    )
    jcts = expected_jcts(params, [1, 1, 1, 1])
    # paper §5.3: 40, 48, 80, 88
    assert jcts == pytest.approx([40.0, 48.0, 80.0, 88.0])
