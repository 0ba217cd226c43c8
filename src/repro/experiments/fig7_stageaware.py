"""Figure 7 + §5.2 text — the effects of stage-awareness and of considering
network demands in placement.

Paper numbers (TPC-H2):

* non-stage-aware placement: makespan +5.66 %, avg JCT +10.84 % (EJF);
  +10.28 % / +15.73 % (SRJF) — stragglers in partially-placed stages block
  dependent stages (Fig. 7b's utilization dip).
* ignoring network demands: makespan 650 vs 613 s, avg JCT 383 vs 339 s —
  collocated network monotasks contend and block their dependent CPU
  monotasks.
"""

from __future__ import annotations

from ..cluster import Cluster
from ..metrics import compute_metrics, format_table
from ..perf.runner import ParallelRunner
from ..perf.units import SplitExperiment
from ..scheduler import UrsaConfig, UrsaSystem
from ..workloads import submit_workload, tpch2_workload
from .common import Scale, run_to_completion

__all__ = ["run", "SPLIT", "VARIANTS"]

VARIANTS = {
    "baseline": dict(),
    "non-stage-aware": dict(stage_aware=False),
    "ignore-network": dict(ignore_network=True),
}


def unit_keys(sc: Scale, policy: str = "ejf") -> list[str]:
    return list(VARIANTS)


def run_unit(sc: Scale, variant: str, seed: int = 0, policy: str = "ejf"):
    flags = VARIANTS[variant]
    cluster = Cluster(sc.cluster)
    system = UrsaSystem(cluster, UrsaConfig(policy=policy, **flags))
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
    run_to_completion(system, sc, variant)
    return compute_metrics(system)


def reduce(sc: Scale, payloads: dict, policy: str = "ejf") -> dict:
    out = dict(payloads)
    rows = [
        [name, m.makespan, m.mean_jct, 100.0 * m.ue_cpu] for name, m in out.items()
    ]
    base = out["baseline"]
    for name in ("non-stage-aware", "ignore-network"):
        m = out[name]
        rows.append([
            f"Δ {name}",
            100.0 * (m.makespan / base.makespan - 1.0),
            100.0 * (m.mean_jct / base.mean_jct - 1.0),
            0.0,
        ])
    print(format_table(
        ["variant", "makespan", "avg_jct", "UE_cpu"],
        rows,
        title=f"Figure 7 / §5.2 (stage-awareness & network demands, {policy}, scale={sc.name})",
    ))
    return out


SPLIT = SplitExperiment("fig7+sec5.2", unit_keys, run_unit, reduce)


def run(scale: str | Scale = "bench", seed: int = 0, policy: str = "ejf") -> dict:
    return ParallelRunner().run(SPLIT.name, scale, seed=seed, policy=policy)


if __name__ == "__main__":  # pragma: no cover
    run()
