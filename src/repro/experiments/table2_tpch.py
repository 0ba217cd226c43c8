"""Table 2 — performance on the TPC-H workload.

Paper values (20×32 cores, 200 jobs @ 5 s):

    system      makespan  avgJCT   UE_cpu  SE_cpu  UE_mem  SE_mem
    Ursa-EJF        2803   600.0    99.64   92.47   78.83   39.80
    Ursa-SRJF       2859   490.0    99.65   89.73   78.02   48.85
    Y+S             3849  1407.4    69.35   93.32   34.69   44.13
    Y+T             9228  4287.0    58.97   98.19   28.81   70.71

Shape contract we assert: Ursa's UE_cpu ≫ Y+S's > Y+T's; makespan(Ursa) <
makespan(Y+S) < makespan(Y+T); SRJF trades a little makespan for a better
average JCT; Ursa's UE_mem ≫ the baselines'.
"""

from __future__ import annotations

from ..perf.runner import ParallelRunner
from ..workloads import tpch_workload
from .common import MetricsResult, Scale, metric_table_split

__all__ = ["run", "SPLIT", "SYSTEMS", "PAPER_ROWS"]

SYSTEMS = ("ursa-ejf", "ursa-srjf", "y+s", "y+t")

PAPER_ROWS = {
    "ursa-ejf": dict(makespan=2803, avg_jct=600.0, UE_cpu=99.64, SE_cpu=92.47, UE_mem=78.83, SE_mem=39.80),
    "ursa-srjf": dict(makespan=2859, avg_jct=489.96, UE_cpu=99.65, SE_cpu=89.73, UE_mem=78.02, SE_mem=48.85),
    "y+s": dict(makespan=3849, avg_jct=1407.40, UE_cpu=69.35, SE_cpu=93.32, UE_mem=34.69, SE_mem=44.13),
    "y+t": dict(makespan=9228, avg_jct=4287.00, UE_cpu=58.97, SE_cpu=98.19, UE_mem=28.81, SE_mem=70.71),
}


def workload(scale: Scale):
    return tpch_workload(
        n_jobs=scale.n_jobs,
        scale=scale.workload_scale,
        arrival_interval=scale.arrival_interval,
        max_parallelism=scale.max_parallelism,
        partition_mb=scale.partition_mb,
    )


SPLIT = metric_table_split(
    "table2", SYSTEMS, workload, "Table 2 (TPC-H, scale={scale})"
)


def run(scale: str | Scale = "bench", seed: int = 0) -> dict[str, MetricsResult]:
    return ParallelRunner().run(SPLIT.name, scale, seed=seed)


if __name__ == "__main__":  # pragma: no cover
    run()
