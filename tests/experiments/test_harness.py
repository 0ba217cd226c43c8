"""Tests for the experiment harness (heavy runs live in benchmarks/)."""

import pytest

from repro.experiments import SCALES, Scale, build_system, run_one_system
from repro.experiments.registry import SPLIT_EXPERIMENTS
from repro.cluster import Cluster, ClusterSpec
from repro.workloads import tpch_workload


def test_registry_covers_every_paper_artifact():
    expected = {
        "table1+fig1", "table2", "table3", "table4", "table5", "table6",
        "fig4+fig5", "fig6", "fig7+sec5.2", "fig8", "fig9", "fig10",
        "fig_faults", "fig_service",
    }
    assert set(SPLIT_EXPERIMENTS) == expected
    for split in SPLIT_EXPERIMENTS.values():
        assert callable(split.run_unit)


def test_scale_with_network_override():
    sc = SCALES["tiny"].with_network(1.0)
    assert sc.cluster.machine.net_gbps == 1.0
    assert SCALES["tiny"].cluster.machine.net_gbps == 10.0  # frozen original


def test_run_experiment_micro():
    """A micro experiment end-to-end through the harness machinery."""
    sc = Scale(
        "micro", workload_scale=0.005, n_jobs=3, arrival_interval=0.5,
        max_parallelism=32, partition_mb=8.0,
        cluster=ClusterSpec(num_machines=2, machine=ClusterSpec.paper_cluster().machine),
    )

    def wl(scale):
        return tpch_workload(
            n_jobs=scale.n_jobs, scale=scale.workload_scale,
            arrival_interval=scale.arrival_interval,
            max_parallelism=scale.max_parallelism,
            partition_mb=scale.partition_mb,
        )

    results = {name: run_one_system(name, wl, sc) for name in ("ursa-ejf", "y+s")}
    assert set(results) == {"ursa-ejf", "y+s"}
    for name, res in results.items():
        assert res.name == name
        assert res.metrics.makespan > 0
        assert res.cluster is res.system.cluster


def test_paper_reference_tables_present():
    from repro.experiments import table2_tpch, table3_tpcds, table4_mixed

    assert table2_tpch.PAPER_ROWS["ursa-ejf"]["makespan"] == 2803
    assert table3_tpcds.PAPER_ROWS["y+s"]["UE_cpu"] == 48.56
    assert table4_mixed.PAPER_ROWS["tetris"]["SE_cpu"] == 70.02


def test_build_system_oversubscription_passthrough():
    cluster = Cluster(ClusterSpec.small())
    system = build_system("y+s", cluster, subscription_ratio=2.0)
    assert system.yarn_config.cpu_subscription_ratio == 2.0
