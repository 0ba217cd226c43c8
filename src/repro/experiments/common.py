"""Shared harness for all paper experiments.

Every experiment builds systems by name, submits a generated workload, runs
to completion, and reports :class:`~repro.metrics.accounting.SystemMetrics`
(plus utilization traces for the figure experiments).

Scales: the authors ran a 20×32-core testbed for ~an hour per workload; the
default ``bench`` scale shrinks data sizes and job counts so every
experiment finishes in seconds-to-minutes of wall time while keeping the
cluster *contended* (that is what the comparisons are about).  ``paper``
scale reproduces the §5 configuration (200 jobs, 5 s arrivals) for offline
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from ..cluster import Cluster, ClusterSpec
from ..metrics import SystemMetrics, compute_metrics, format_metric_rows
from ..perf.units import SplitExperiment
from ..rules import NONNEG, POS, POS_INT, TEXT, instance, ruled, ruled_dataclass
from ..scheduler import UrsaConfig, UrsaSystem
from ..workloads import JobSpec, submit_workload

__all__ = [
    "Scale", "SCALES", "build_system", "run_one_system",
    "run_to_completion", "SYSTEM_NAMES", "ExperimentResult", "MetricsResult",
    "metric_table_split",
]


@ruled_dataclass(frozen=True)
class Scale:
    """Knobs that shrink an experiment without changing its structure."""

    name: str = ruled(TEXT)
    workload_scale: float = ruled(POS)      # multiplies data sizes
    n_jobs: int = ruled(POS_INT)            # job count for the big workloads
    arrival_interval: float = ruled(NONNEG)  # seconds between submissions
    max_parallelism: int = ruled(POS_INT)   # cap on stage width
    partition_mb: float = ruled(POS, 128.0)  # task granularity (shrinks with the data)
    cluster: ClusterSpec = ruled(instance(ClusterSpec), default_factory=ClusterSpec.paper_cluster)
    max_events: int = ruled(POS_INT, 200_000_000)

    def with_network(self, gbps: float) -> "Scale":
        return replace(self, cluster=self.cluster.with_network(gbps))


SCALES: dict[str, Scale] = {
    # fast CI-grade runs; task granularity shrunk so stages stay wide enough
    # to contend the (smaller) cluster, like the full-size workload does
    "tiny": Scale(
        "tiny", workload_scale=0.02, n_jobs=10, arrival_interval=0.6,
        max_parallelism=128, partition_mb=12.0,
        cluster=ClusterSpec(num_machines=4, machine=ClusterSpec.paper_cluster().machine),
    ),
    # benchmark default: 8 machines, moderate data, contended
    "bench": Scale(
        "bench", workload_scale=0.05, n_jobs=25, arrival_interval=1.0,
        max_parallelism=400, partition_mb=16.0,
        cluster=ClusterSpec(num_machines=8, machine=ClusterSpec.paper_cluster().machine),
    ),
    # the paper's configuration (slow: run offline)
    "paper": Scale(
        "paper", workload_scale=1.0, n_jobs=200, arrival_interval=5.0,
        max_parallelism=4000, partition_mb=128.0,
    ),
}

SYSTEM_NAMES = (
    "ursa-ejf", "ursa-srjf", "y+s", "y+t", "y+u",
    "tetris", "tetris2", "capacity",
)


def build_system(name: str, cluster: Cluster, subscription_ratio: float = 1.0):
    """Instantiate a named system over a (fresh) cluster.

    ``subscription_ratio`` is the YARN baselines' advertised-core ratio
    (Table 5's over-subscription sweep).
    """
    # lazy: a run of Ursa alone never loads the baselines
    from ..baselines import CapacityPlacement, MonoSparkApp, TetrisPlacement
    from ..baselines import YarnConfig, YarnSystem, spark_config, tez_config

    yarn = YarnConfig(cpu_subscription_ratio=subscription_ratio)
    if name == "ursa-ejf":
        return UrsaSystem(cluster, UrsaConfig(policy="ejf"))
    if name == "ursa-srjf":
        return UrsaSystem(cluster, UrsaConfig(policy="srjf"))
    if name == "y+s":
        return YarnSystem(cluster, spark_config(), yarn)
    if name == "y+t":
        return YarnSystem(cluster, tez_config(), yarn)
    if name == "y+u":
        return YarnSystem(cluster, spark_config(), yarn, app_class=MonoSparkApp)
    if name == "tetris":
        return UrsaSystem(cluster, UrsaConfig(placement=TetrisPlacement()))
    if name == "tetris2":
        return UrsaSystem(
            cluster, UrsaConfig(placement=TetrisPlacement(include_network=False))
        )
    if name == "capacity":
        return UrsaSystem(cluster, UrsaConfig(placement=CapacityPlacement()))
    raise ValueError(f"unknown system {name!r}; known: {SYSTEM_NAMES}")


@dataclass
class ExperimentResult:
    """One system's run: metrics plus handles for trace post-processing."""

    name: str
    metrics: SystemMetrics
    system: object

    @property
    def cluster(self) -> Cluster:
        return self.system.cluster


@dataclass
class MetricsResult:
    """Picklable slice of an :class:`ExperimentResult` — what a worker
    process can ship back to the parent (no live system/cluster handles)."""

    name: str
    metrics: SystemMetrics


def run_one_system(
    name: str,
    workload_fn: Callable[[Scale], list[tuple[JobSpec, float]]],
    scale: Scale,
    seed: int = 0,
) -> ExperimentResult:
    """Run one named system over a fresh cluster + regenerated workload:
    the independent simulation unit the parallel runner fans out."""
    cluster = Cluster(scale.cluster)
    system = build_system(name, cluster)
    workload = workload_fn(scale)
    submit_workload(system, workload, seed=seed)
    run_to_completion(system, scale, name)
    return ExperimentResult(name, compute_metrics(system), system)


def run_to_completion(system, scale: Scale, label: str) -> None:
    """Run ``system`` until its workload drains, within ``scale.max_events``;
    raise ``RuntimeError("<label>: did not finish")`` if it does not."""
    system.run(max_events=scale.max_events)
    if not system.all_done:
        raise RuntimeError(f"{label}: did not finish")


def metric_table_split(
    name: str,
    systems: Sequence[str],
    workload_fn: Callable[[Scale], list[tuple[JobSpec, float]]],
    title: str,
) -> SplitExperiment:
    """Enumerate/run/reduce triple for the "one row per system" tables
    (Tables 2–4): each unit is one system's full run, the payload is its
    :class:`SystemMetrics`, and the reduce prints the metric table.

    ``title`` may contain ``{scale}``, filled with the scale name.
    """

    def unit_keys(sc: Scale) -> list[str]:
        return list(systems)

    def run_unit(sc: Scale, system_name: str, seed: int = 0) -> SystemMetrics:
        return run_one_system(system_name, workload_fn, sc, seed=seed).metrics

    def reduce(sc: Scale, payloads: dict[str, SystemMetrics]) -> dict[str, MetricsResult]:
        print(format_metric_rows(payloads, title=title.format(scale=sc.name)))
        return {k: MetricsResult(k, m) for k, m in payloads.items()}

    return SplitExperiment(name, unit_keys, run_unit, reduce)
