"""Workload generators matching the paper's evaluation sets (§5).

The TPC-H, TPC-DS, mixed, graph and ML generators load on first use."""

from ..lazy import lazy_exports
from .runner import submit_workload
from .spec import JobSpec, StageSpec
from .synthetic import (
    SyntheticParams,
    expected_jcts,
    make_synthetic_job,
    synthetic_setting1,
    synthetic_setting2,
)

__getattr__ = lazy_exports(__name__, {
    "graphs": "make_cc_job make_pagerank_job",
    "ml": "make_kmeans_job make_lr_job",
    "mixed": "mixed_workload tpch2_workload",
    "tpch": "DATASET_MIX QUERY_TEMPLATES make_tpch_job tpch_workload",
    "tpcds": "make_tpcds_job tpcds_workload",
})

__all__ = [
    "make_cc_job",
    "make_pagerank_job",
    "make_kmeans_job",
    "make_lr_job",
    "mixed_workload",
    "tpch2_workload",
    "submit_workload",
    "JobSpec",
    "StageSpec",
    "SyntheticParams",
    "expected_jcts",
    "make_synthetic_job",
    "synthetic_setting1",
    "synthetic_setting2",
    "DATASET_MIX",
    "QUERY_TEMPLATES",
    "make_tpch_job",
    "tpch_workload",
    "make_tpcds_job",
    "tpcds_workload",
]
