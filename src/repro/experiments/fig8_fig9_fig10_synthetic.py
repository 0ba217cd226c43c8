"""Figures 8–10 — the expectable synthetic workload (§5.3).

* Fig. 8: a single Type-1 / Type-2 job shows alternating CPU and network
  phases.
* Fig. 9 (Setting 1): 40 Type-1 jobs under EJF; actual JCTs must track the
  ideal-case arithmetic (jobs run in overlapped pairs: 40, 48, 80, 88 … s at
  paper scale), and cluster CPU stays pinned high.
* Fig. 10 (Setting 2): 20 Type-1 + 20 Type-2 alternating, EJF and SRJF;
  actual JCTs again track the per-policy expectations.
"""

from __future__ import annotations

import numpy as np

from ..cluster import Cluster
from ..metrics import format_table, multi_series_chart
from ..perf.runner import ParallelRunner
from ..perf.units import SplitExperiment
from ..scheduler import UrsaConfig, UrsaSystem
from ..workloads import (
    SyntheticParams,
    expected_jcts,
    make_synthetic_job,
    submit_workload,
    synthetic_setting1,
    synthetic_setting2,
)
from .common import Scale, run_to_completion

__all__ = [
    "run_fig8", "run_fig9", "run_fig10", "params_for",
    "SPLIT_FIG8", "SPLIT_FIG9", "SPLIT_FIG10",
]


def params_for(sc: Scale, stage_seconds: float = 8.0) -> SyntheticParams:
    m = sc.cluster.machine
    return SyntheticParams(
        total_cores=sc.cluster.total_cores,
        core_rate_mbps=m.core_rate_mbps,
        net_mbps_per_machine=m.net_mbps,
        machines=sc.cluster.num_machines,
        stage_seconds=stage_seconds,
    )


def _run(sc: Scale, workload, policy="ejf", weight=5.0):
    # a high ordering weight enforces the policy strictly, as the ideal-case
    # arithmetic of §5.3 assumes ("W indicates how much EJF should be
    # enforced")
    cluster = Cluster(sc.cluster)
    system = UrsaSystem(cluster, UrsaConfig(policy=policy, policy_weight=weight))
    jobs = submit_workload(system, workload, seed=1)
    run_to_completion(system, sc, "synthetic workload")
    return system, jobs


# ----------------------------------------------------------------------
# Figure 8 — single Type-1 / Type-2 jobs
# ----------------------------------------------------------------------
def fig8_unit_keys(sc: Scale) -> list[int]:
    return [1, 2]


def fig8_run_unit(sc: Scale, jtype: int, seed: int = 0) -> dict:
    params = params_for(sc)
    spec = make_synthetic_job(params, jtype, seed=0, name=f"type{jtype}")
    system, jobs = _run(sc, [(spec, 0.0)])
    end = jobs[0].jct
    dt = max(end / 50, 0.25)
    _g, cpu = system.cluster.utilization_timeseries("cpu_used", 0, end, dt=dt)
    _g, net = system.cluster.utilization_timeseries("net_used", 0, end, dt=dt)
    return {"jct": jobs[0].jct, "cpu": cpu, "net": net}


def fig8_reduce(sc: Scale, payloads: dict, show_charts: bool = True) -> dict:
    if show_charts:
        for jtype in (1, 2):
            unit = payloads[jtype]
            print(f"\nFigure 8: single Type-{jtype} job (JCT {unit['jct']:.1f} s)")
            print(multi_series_chart({"[CPU]Totl%": unit["cpu"], "[NET]Recv%": unit["net"]}))
    return dict(payloads)


SPLIT_FIG8 = SplitExperiment("fig8", fig8_unit_keys, fig8_run_unit, fig8_reduce)


def run_fig8(scale: str | Scale = "bench", show_charts: bool = True) -> dict:
    """Single Type-1 and Type-2 jobs: alternating CPU/network phases."""
    return ParallelRunner().run(SPLIT_FIG8.name, scale, show_charts=show_charts)


# ----------------------------------------------------------------------
# Figure 9 — Setting 1 (Type-1 jobs only, EJF)
# ----------------------------------------------------------------------
def fig9_unit_keys(sc: Scale, n_jobs: int = 12) -> list[str]:
    return ["setting1"]


def fig9_run_unit(sc: Scale, key: str, seed: int = 0, n_jobs: int = 12) -> dict:
    params = params_for(sc)
    system, jobs = _run(sc, synthetic_setting1(params, n_jobs=n_jobs))
    actual = [j.jct for j in jobs]
    expect = expected_jcts(params, [1] * n_jobs)
    end = system.makespan()
    _g, cpu = system.cluster.utilization_timeseries("cpu_used", 0, end, dt=1.0)
    mean_cpu = float(np.mean(cpu[: max(1, int(len(cpu) * 0.8))]))
    return {"actual": actual, "expected": expect, "cpu_series": cpu, "mean_cpu": mean_cpu}


def fig9_reduce(sc: Scale, payloads: dict, n_jobs: int = 12, show_charts: bool = True) -> dict:
    out = payloads["setting1"]
    rows = [
        [i, e, a, 100.0 * (a / e - 1.0)]
        for i, (e, a) in enumerate(zip(out["expected"], out["actual"]))
    ]
    print(format_table(
        ["job", "JCT_Expect", "JCT_Actual", "err %"], rows,
        title=f"Figure 9a (Setting 1, {n_jobs} Type-1 jobs, scale={sc.name})",
    ))
    if show_charts:
        print("\nFigure 9b: cluster CPU utilization")
        print(multi_series_chart({"[CPU]Totl%": out["cpu_series"]}))
    return out


SPLIT_FIG9 = SplitExperiment("fig9", fig9_unit_keys, fig9_run_unit, fig9_reduce)


def run_fig9(scale: str | Scale = "bench", n_jobs: int = 12, show_charts: bool = True) -> dict:
    """Setting 1: Type-1 jobs only, EJF; compare actual vs expected JCT."""
    return ParallelRunner().run(SPLIT_FIG9.name, scale, n_jobs=n_jobs, show_charts=show_charts)


# ----------------------------------------------------------------------
# Figure 10 — Setting 2 (alternating Type-1 / Type-2, EJF vs SRJF)
# ----------------------------------------------------------------------
def fig10_unit_keys(sc: Scale, n_pairs: int = 6) -> list[str]:
    return ["ejf", "srjf"]


def fig10_run_unit(sc: Scale, policy: str, seed: int = 0, n_pairs: int = 6) -> dict:
    params = params_for(sc)
    types = [1, 2] * n_pairs
    system, jobs = _run(sc, synthetic_setting2(params, n_pairs=n_pairs), policy=policy)
    actual = [j.jct for j in jobs]
    expect = expected_jcts(params, types, policy=policy)
    return {"actual": actual, "expected": expect, "types": types}


def fig10_reduce(sc: Scale, payloads: dict, n_pairs: int = 6, show_charts: bool = True) -> dict:
    for policy in ("ejf", "srjf"):
        unit = payloads[policy]
        rows = [[i, e, a] for i, (e, a) in enumerate(zip(unit["expected"], unit["actual"]))]
        print(format_table(
            ["job", "JCT_Expect", "JCT_Actual"], rows,
            title=f"Figure 10 ({policy.upper()}, Setting 2, scale={sc.name})",
        ))
    return dict(payloads)


SPLIT_FIG10 = SplitExperiment("fig10", fig10_unit_keys, fig10_run_unit, fig10_reduce)


def run_fig10(scale: str | Scale = "bench", n_pairs: int = 6) -> dict:
    """Setting 2: alternating Type-1/Type-2, under EJF and SRJF."""
    return ParallelRunner().run(SPLIT_FIG10.name, scale, n_pairs=n_pairs)


if __name__ == "__main__":  # pragma: no cover
    run_fig8()
    run_fig9()
    run_fig10()
