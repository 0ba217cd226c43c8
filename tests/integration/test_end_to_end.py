"""Cross-layer integration tests: workloads → systems → metrics."""

import pytest

from repro.baselines import MonoSparkApp, YarnSystem, spark_config
from repro.cluster import Cluster, ClusterSpec
from repro.experiments.common import SCALES, build_system
from repro.metrics import compute_metrics
from repro.scheduler import UrsaConfig, UrsaSystem
from repro.workloads import (
    make_lr_job,
    make_pagerank_job,
    submit_workload,
    tpch_workload,
)


def small_spec():
    return ClusterSpec(num_machines=4, machine=ClusterSpec.paper_cluster().machine)


def small_tpch():
    return tpch_workload(
        n_jobs=8, scale=0.02, arrival_interval=0.5, max_parallelism=128,
        partition_mb=12.0, seed=5,
    )


@pytest.mark.parametrize("name", ["ursa-ejf", "ursa-srjf", "y+s", "y+t", "y+u",
                                  "tetris", "tetris2", "capacity"])
def test_every_system_completes_the_same_workload(name):
    cluster = Cluster(small_spec())
    system = build_system(name, cluster)
    jobs = submit_workload(system, small_tpch())
    system.run(max_events=50_000_000)
    assert system.all_done
    m = compute_metrics(system)
    assert m.makespan > 0 and m.mean_jct > 0
    assert 0 < m.se_cpu <= 1.001
    assert 0 < m.ue_cpu <= 1.001


def test_build_system_rejects_unknown_name():
    with pytest.raises(ValueError):
        build_system("nope", Cluster(small_spec()))


def test_ursa_vs_spark_headline_shape():
    """The paper's core claim end-to-end at integration-test scale."""
    ursa = UrsaSystem(Cluster(small_spec()))
    submit_workload(ursa, small_tpch())
    ursa.run(max_events=50_000_000)
    spark = YarnSystem(Cluster(small_spec()), spark_config())
    submit_workload(spark, small_tpch())
    spark.run(max_events=50_000_000)
    mu, ms = compute_metrics(ursa), compute_metrics(spark)
    assert mu.ue_cpu > ms.ue_cpu
    assert mu.makespan <= ms.makespan * 1.1


def test_iterative_jobs_run_on_all_schedulers():
    wl = [
        (make_lr_job(data_mb=400.0, iterations=3, parallelism=32), 0.0),
        (make_pagerank_job(graph_mb=300.0, iterations=3, parallelism=32), 0.5),
    ]
    for name in ("ursa-ejf", "y+s", "y+u"):
        cluster = Cluster(small_spec())
        system = build_system(name, cluster)
        jobs = submit_workload(system, wl)
        # Ursa retires finished jobs: hold their plans before the run
        plans = [j.plan for j in jobs]
        system.run(max_events=50_000_000)
        assert system.all_done, name
        # cached datasets pinned the iteration tasks under Ursa
        if name == "ursa-ejf":
            pinned = [
                t for plan in plans for t in plan.tasks if t.locality is not None
            ]
            assert pinned
            assert all(t.worker == t.locality for t in pinned)


def test_determinism_same_seed_same_result():
    def run():
        cluster = Cluster(small_spec())
        system = UrsaSystem(cluster, UrsaConfig())
        submit_workload(system, small_tpch(), seed=3)
        system.run(max_events=50_000_000)
        return compute_metrics(system)

    a, b = run(), run()
    assert a.makespan == b.makespan
    assert a.jcts == b.jcts


def test_scales_registry_sane():
    for name, sc in SCALES.items():
        assert sc.name == name
        assert sc.workload_scale > 0
        assert sc.cluster.num_machines > 0
