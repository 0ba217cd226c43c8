"""Table 5 — CPU over-subscription (§5.1.2) + the straggler analysis.

Paper values (Mixed workload):

    ratio   makespan(Y+U)  avgJCT(Y+U)  makespan(Y+S)  avgJCT(Y+S)
    1             842.92        443.80        1072.66       435.00
    2             637.96        345.99         872.67       341.77
    4             596.66        325.32         892.83       365.30

Shapes: ratio 2 improves both systems markedly; ratio 4 shows diminishing
returns (and can regress for Y+S).  The §5.1.2 straggler text — the mean
straggler-time : JCT ratio grows with the subscription ratio (2.91% → 6.78%
→ 10.69% for Y+U) — is also reported.
"""

from __future__ import annotations

from ..cluster import Cluster
from ..metrics import compute_metrics, format_table, mean_straggler_ratio
from ..perf.runner import ParallelRunner
from ..perf.units import SplitExperiment
from ..workloads import mixed_workload, submit_workload
from .common import Scale, build_system, run_to_completion

__all__ = ["run", "SPLIT", "RATIOS", "PAPER_ROWS"]

RATIOS = (1.0, 2.0, 4.0)

PAPER_ROWS = {
    (1.0, "y+u"): dict(makespan=842.92, avg_jct=443.80),
    (2.0, "y+u"): dict(makespan=637.96, avg_jct=345.99),
    (4.0, "y+u"): dict(makespan=596.66, avg_jct=325.32),
    (1.0, "y+s"): dict(makespan=1072.66, avg_jct=435.00),
    (2.0, "y+s"): dict(makespan=872.67, avg_jct=341.77),
    (4.0, "y+s"): dict(makespan=892.83, avg_jct=365.30),
}


def unit_keys(sc: Scale) -> list[tuple[float, str]]:
    return [(ratio, name) for ratio in RATIOS for name in ("y+u", "y+s")]


def run_unit(sc: Scale, key: tuple[float, str], seed: int = 0) -> dict:
    ratio, name = key
    cluster = Cluster(sc.cluster)
    system = build_system(name, cluster, subscription_ratio=ratio)
    submit_workload(
        system,
        mixed_workload(
            scale=sc.workload_scale,
            arrival_interval=sc.arrival_interval,
            max_parallelism=sc.max_parallelism,
            partition_mb=sc.partition_mb,
        ),
        seed=seed,
    )
    run_to_completion(system, sc, f"{name} ratio={ratio}")
    return {
        "metrics": compute_metrics(system),
        "straggler_ratio": mean_straggler_ratio(system.jobs),
    }


def reduce(sc: Scale, payloads: dict) -> dict:
    rows = []
    for ratio in RATIOS:
        row = [f"{ratio:.0f}"]
        for name in ("y+u", "y+s"):
            unit = payloads[(ratio, name)]
            row += [
                unit["metrics"].makespan,
                unit["metrics"].mean_jct,
                100.0 * unit["straggler_ratio"],
            ]
        rows.append(row)
    print(
        format_table(
            ["ratio", "mk(Y+U)", "jct(Y+U)", "strag%(Y+U)", "mk(Y+S)", "jct(Y+S)", "strag%(Y+S)"],
            rows,
            title=f"Table 5 (CPU over-subscription, scale={sc.name})",
        )
    )
    return dict(payloads)


SPLIT = SplitExperiment("table5", unit_keys, run_unit, reduce)


def run(scale: str | Scale = "bench", seed: int = 0) -> dict:
    return ParallelRunner().run(SPLIT.name, scale, seed=seed)


if __name__ == "__main__":  # pragma: no cover
    run()
