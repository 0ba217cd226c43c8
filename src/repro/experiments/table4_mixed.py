"""Table 4 — the Mixed workload (§5.1.2).

Paper values:

    system      makespan  avgJCT   UE_cpu  SE_cpu
    Ursa-EJF       464.0   208.2    99.57   86.60
    Ursa-SRJF      473.5   170.6    98.89   86.08
    Y+U            842.9   443.8    44.15   89.97
    Y+S           1072.7   435.0    67.92   83.84
    Capacity       511.0   226.2    99.77   78.66
    Tetris         562.3   254.5    98.62   70.02
    Tetris2        506.0   240.8    99.71   79.75

Shapes checked: (1) Y+U has executor-grade UE despite running monotasks —
fine-grained sharing *within* a job is not enough; (2) the placement
comparators (Capacity, Tetris, Tetris2) keep Ursa-grade UE but lose SE_cpu,
with Tetris (peak network demands block placement) worst and Tetris2 ≥
Tetris; (3) Ursa's Algorithm 1 gives the best makespan of the group.
"""

from __future__ import annotations

from ..perf.runner import ParallelRunner
from ..workloads import mixed_workload
from .common import MetricsResult, Scale, metric_table_split

__all__ = ["run", "SPLIT", "SYSTEMS", "PAPER_ROWS"]

SYSTEMS = ("ursa-ejf", "ursa-srjf", "y+u", "y+s", "capacity", "tetris", "tetris2")

PAPER_ROWS = {
    "ursa-ejf": dict(makespan=464.00, avg_jct=208.21, UE_cpu=99.57, SE_cpu=86.60),
    "ursa-srjf": dict(makespan=473.50, avg_jct=170.64, UE_cpu=98.89, SE_cpu=86.08),
    "y+u": dict(makespan=842.92, avg_jct=443.80, UE_cpu=44.15, SE_cpu=89.97),
    "y+s": dict(makespan=1072.66, avg_jct=435.00, UE_cpu=67.92, SE_cpu=83.84),
    "capacity": dict(makespan=511.00, avg_jct=226.16, UE_cpu=99.77, SE_cpu=78.66),
    "tetris": dict(makespan=562.33, avg_jct=254.52, UE_cpu=98.62, SE_cpu=70.02),
    "tetris2": dict(makespan=506.00, avg_jct=240.83, UE_cpu=99.71, SE_cpu=79.75),
}


def workload(scale: Scale):
    # the Mixed set is 38 jobs by construction; scale shrinks sizes only
    return mixed_workload(
        scale=scale.workload_scale,
        parallelism=600,
        arrival_interval=scale.arrival_interval,
        max_parallelism=scale.max_parallelism,
        partition_mb=scale.partition_mb,
    )


SPLIT = metric_table_split(
    "table4", SYSTEMS, workload, "Table 4 (Mixed, scale={scale})"
)


def run(scale: str | Scale = "bench", seed: int = 0) -> dict[str, MetricsResult]:
    return ParallelRunner().run(SPLIT.name, scale, seed=seed)


if __name__ == "__main__":  # pragma: no cover
    run()
