"""Figures 4 & 5 — cluster utilization traces for TPC-H and TPC-DS.

The paper plots a 10-minute window of per-second CPU/MEM/NET utilization for
each system: Ursa's CPU line is a near-flat plateau at ~100 % while Y+S and
Y+T fluctuate heavily.  We regenerate the same series (resampled over the
contended middle of the run) and summarize flatness as the coefficient of
variation of the CPU series — Ursa's must be far lower.
"""

from __future__ import annotations

import numpy as np

from ..metrics import format_table, multi_series_chart
from ..perf.runner import ParallelRunner
from ..perf.units import SplitExperiment
from .common import ExperimentResult, Scale, run_one_system
from .table2_tpch import workload as tpch_wl
from .table3_tpcds import workload as tpcds_wl

__all__ = ["run", "SPLIT", "cpu_flatness", "FIGURES"]

FIGURES = {
    "Figure 4 (TPC-H)": (("ursa-ejf", "ursa-srjf", "y+s", "y+t"), tpch_wl),
    "Figure 5 (TPC-DS)": (("ursa-ejf", "ursa-srjf", "y+s"), tpcds_wl),
}


def cpu_flatness(result: ExperimentResult, lo_frac=0.1, hi_frac=0.7, dt=1.0):
    """(mean, coefficient of variation) of the CPU series over the busy
    middle window of the run."""
    end = result.system.makespan()
    t0, t1 = lo_frac * end, hi_frac * end
    _grid, cpu = result.cluster.utilization_timeseries("cpu_used", t0, t1, dt=dt)
    arr = np.asarray(cpu)
    mean = float(arr.mean())
    cv = float(arr.std() / mean) if mean > 0 else 0.0
    return mean, cv, cpu


def unit_keys(sc: Scale) -> list[tuple[str, str]]:
    return [(figure, name) for figure, (systems, _wl) in FIGURES.items() for name in systems]


def run_unit(sc: Scale, key: tuple[str, str], seed: int = 0) -> dict:
    figure, name = key
    _systems, wl = FIGURES[figure]
    res = run_one_system(name, wl, sc, seed=seed)
    mean, cv, cpu = cpu_flatness(res)
    end = res.system.makespan()
    _g, net = res.cluster.utilization_timeseries("net_used", 0.1 * end, 0.7 * end, dt=1.0)
    _g, mem = res.cluster.utilization_timeseries("mem_used", 0.1 * end, 0.7 * end, dt=1.0)
    return {
        "cpu_mean": mean, "cpu_cv": cv,
        "series": {"cpu": cpu, "net": net, "mem": mem},
    }


def reduce(sc: Scale, payloads: dict, show_charts: bool = True) -> dict:
    out = dict(payloads)
    for figure, (systems, _wl) in FIGURES.items():
        rows = []
        for name in systems:
            unit = out[(figure, name)]
            rows.append([name, unit["cpu_mean"], unit["cpu_cv"]])
            if show_charts:
                s = unit["series"]
                print(f"\n{figure}: {name} (busy window, {sc.name} scale)")
                print(multi_series_chart(
                    {"[CPU]Totl%": s["cpu"], "[NET]Recv%": s["net"], "[MEM]Used%": s["mem"]}
                ))
        print()
        print(format_table(["system", "mean CPU %", "CPU CoV"], rows, title=figure))
    return out


SPLIT = SplitExperiment("fig4+fig5", unit_keys, run_unit, reduce)


def run(scale: str | Scale = "bench", seed: int = 0, show_charts: bool = True) -> dict:
    return ParallelRunner().run(SPLIT.name, scale, seed=seed, show_charts=show_charts)


if __name__ == "__main__":  # pragma: no cover
    run()
