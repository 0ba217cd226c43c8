"""Table 6 — job-ordering (JO) vs monotask-ordering (MO) ablation (§5.2).

Paper values (TPC-H2):

    setting    makespan(EJF)  avgJCT(EJF)  makespan(SRJF)  avgJCT(SRJF)
    JO            630.33        376.67        623.00        373.08
    MO            615.33        346.49        629.33        351.73
    JO + MO       613.00        328.31        635.67        338.67

Shape: MO alone beats JO alone on average JCT ("MO is more effective than
JO because it directly determines both resource allocation and monotask
execution"), and enabling both is best.
"""

from __future__ import annotations

from ..cluster import Cluster
from ..metrics import compute_metrics, format_table
from ..perf.runner import ParallelRunner
from ..perf.units import SplitExperiment
from ..scheduler import UrsaConfig, UrsaSystem
from ..workloads import submit_workload, tpch2_workload
from .common import Scale, run_to_completion

__all__ = ["run", "SPLIT", "SETTINGS", "PAPER_ROWS"]

SETTINGS = {
    "JO": dict(job_ordering=True, monotask_ordering=False),
    "MO": dict(job_ordering=False, monotask_ordering=True),
    "JO+MO": dict(job_ordering=True, monotask_ordering=True),
}

PAPER_ROWS = {
    ("JO", "ejf"): dict(makespan=630.33, avg_jct=376.67),
    ("MO", "ejf"): dict(makespan=615.33, avg_jct=346.49),
    ("JO+MO", "ejf"): dict(makespan=613.00, avg_jct=328.31),
    ("JO", "srjf"): dict(makespan=623.00, avg_jct=373.08),
    ("MO", "srjf"): dict(makespan=629.33, avg_jct=351.73),
    ("JO+MO", "srjf"): dict(makespan=635.67, avg_jct=338.67),
}


def unit_keys(sc: Scale) -> list[tuple[str, str]]:
    return [(setting, policy) for setting in SETTINGS for policy in ("ejf", "srjf")]


def run_unit(sc: Scale, key: tuple[str, str], seed: int = 0):
    setting, policy = key
    flags = SETTINGS[setting]
    cluster = Cluster(sc.cluster)
    system = UrsaSystem(cluster, UrsaConfig(policy=policy, policy_weight=0.2, **flags))
    submit_workload(
        system,
        tpch2_workload(
            scale=sc.workload_scale,
            arrival_interval=sc.arrival_interval,
            max_parallelism=sc.max_parallelism,
            partition_mb=sc.partition_mb,
        ),
        seed=seed,
    )
    run_to_completion(system, sc, f"{setting}/{policy}")
    return compute_metrics(system)


def reduce(sc: Scale, payloads: dict) -> dict:
    rows = []
    for setting in SETTINGS:
        row = [setting]
        for policy in ("ejf", "srjf"):
            metrics = payloads[(setting, policy)]
            row += [metrics.makespan, metrics.mean_jct]
        rows.append(row)
    print(
        format_table(
            ["setting", "mk(EJF)", "jct(EJF)", "mk(SRJF)", "jct(SRJF)"],
            rows,
            title=f"Table 6 (JO/MO ablation on TPC-H2, scale={sc.name})",
        )
    )
    return dict(payloads)


SPLIT = SplitExperiment("table6", unit_keys, run_unit, reduce)


def run(scale: str | Scale = "bench", seed: int = 0) -> dict:
    return ParallelRunner().run(SPLIT.name, scale, seed=seed)


if __name__ == "__main__":  # pragma: no cover
    run()
