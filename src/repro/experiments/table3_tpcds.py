"""Table 3 — performance on the TPC-DS workload (EJF, SRJF, Y+S).

Paper values:

    system      makespan  avgJCT   UE_cpu  SE_cpu  UE_mem  SE_mem
    Ursa-EJF        1613   453.2    99.57   88.31   81.64   25.01
    Ursa-SRJF       1630   242.3    99.75   86.99   85.83   32.93
    Y+S             2927   894.4    48.56   90.48   19.39   37.65

TPC-DS's deep DAGs with alternating wide/narrow stages hurt Y+S even more
than TPC-H does (idle containers during small stages + re-request latency
during big ones), so the Ursa : Y+S UE and makespan gaps widen — that
relative widening is the shape this experiment checks.
"""

from __future__ import annotations

from ..perf.runner import ParallelRunner
from ..workloads import tpcds_workload
from .common import MetricsResult, Scale, metric_table_split

__all__ = ["run", "SPLIT", "SYSTEMS", "PAPER_ROWS"]

SYSTEMS = ("ursa-ejf", "ursa-srjf", "y+s")

PAPER_ROWS = {
    "ursa-ejf": dict(makespan=1613, avg_jct=453.20, UE_cpu=99.57, SE_cpu=88.31, UE_mem=81.64, SE_mem=25.01),
    "ursa-srjf": dict(makespan=1630, avg_jct=242.27, UE_cpu=99.75, SE_cpu=86.99, UE_mem=85.83, SE_mem=32.93),
    "y+s": dict(makespan=2927, avg_jct=894.36, UE_cpu=48.56, SE_cpu=90.48, UE_mem=19.39, SE_mem=37.65),
}


def workload(scale: Scale):
    return tpcds_workload(
        n_jobs=scale.n_jobs,
        scale=scale.workload_scale,
        arrival_interval=scale.arrival_interval,
        max_parallelism=scale.max_parallelism,
        partition_mb=scale.partition_mb,
    )


SPLIT = metric_table_split(
    "table3", SYSTEMS, workload, "Table 3 (TPC-DS, scale={scale})"
)


def run(scale: str | Scale = "bench", seed: int = 0) -> dict[str, MetricsResult]:
    return ParallelRunner().run(SPLIT.name, scale, seed=seed)


if __name__ == "__main__":  # pragma: no cover
    run()
