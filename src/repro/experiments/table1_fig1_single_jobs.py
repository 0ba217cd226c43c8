"""Table 1 + Figure 1 — single-job UE and utilization patterns.

Table 1 (paper): highest achievable CPU UE on Spark / Tez with ideally
tuned containers —

            LR       CC       TPC-H Q14  TPC-H Q8
    Spark   13.97%   45.81%   62.16%     48.34%
    Tez     N/A      N/A      30.93%     41.70%

Figure 1: per-workload utilization traces showing (a–d) regular CPU/network
alternation for iterative ML/graph jobs and (e–h) irregular fluctuation for
OLAP queries.  We run each job alone on each engine (Ursa stands in for the
domain-specific engines Petuum/Gemini — like them it overlaps phases) and
report CPU UE plus 1 s-resampled CPU/NET/MEM series.
"""

from __future__ import annotations

from ..cluster import Cluster
from ..metrics import compute_metrics, format_table, multi_series_chart
from ..perf.runner import ParallelRunner
from ..perf.units import SplitExperiment
from ..workloads import (
    make_cc_job,
    make_lr_job,
    make_tpch_job,
    submit_workload,
)
from .common import Scale, build_system, run_to_completion

__all__ = ["run", "SPLIT", "JOBS", "ENGINES", "PAPER_UE"]

ENGINES = ("y+s", "y+t", "ursa-ejf")

PAPER_UE = {
    ("spark", "lr"): 13.97,
    ("spark", "cc"): 45.81,
    ("spark", "q14"): 62.16,
    ("spark", "q8"): 48.34,
    ("tez", "q14"): 30.93,
    ("tez", "q8"): 41.70,
}


def JOBS(sc: Scale):
    par = max(8, int(sc.cluster.total_cores))
    return {
        "lr": make_lr_job(
            data_mb=24_000.0 * sc.workload_scale, iterations=8, parallelism=par
        ),
        "cc": make_cc_job(
            graph_mb=30_000.0 * sc.workload_scale, iterations=6, parallelism=par
        ),
        "q14": make_tpch_job(
            14, 200.0, sc.workload_scale, seed=91,
            max_parallelism=sc.max_parallelism, partition_mb=sc.partition_mb,
        ),
        "q8": make_tpch_job(
            8, 200.0, sc.workload_scale, seed=92,
            max_parallelism=sc.max_parallelism, partition_mb=sc.partition_mb,
        ),
    }


def unit_keys(sc: Scale) -> list[tuple[str, str]]:
    return [(engine, job_name) for engine in ENGINES for job_name in JOBS(sc)]


def run_unit(sc: Scale, key: tuple[str, str], seed: int = 0) -> dict:
    engine, job_name = key
    spec = JOBS(sc)[job_name]
    cluster = Cluster(sc.cluster)
    system = build_system(engine, cluster)
    submit_workload(system, [(spec, 0.0)], seed=seed)
    run_to_completion(system, sc, f"{engine}/{job_name}")
    metrics = compute_metrics(system)
    end = system.makespan()
    _g, cpu = cluster.utilization_timeseries("cpu_used", 0, end, dt=max(end / 60, 0.5))
    _g, net = cluster.utilization_timeseries("net_used", 0, end, dt=max(end / 60, 0.5))
    _g, mem = cluster.utilization_timeseries("mem_used", 0, end, dt=max(end / 60, 0.5))
    return {
        "metrics": metrics,
        "series": {"cpu": cpu, "net": net, "mem": mem},
    }


def reduce(sc: Scale, payloads: dict, show_charts: bool = True) -> dict:
    results = dict(payloads)
    job_names = list(JOBS(sc))
    rows = []
    for engine in ENGINES:
        row = [engine]
        for job_name in job_names:
            unit = results[(engine, job_name)]
            row.append(100.0 * unit["metrics"].ue_cpu)
            if show_charts and engine in ("y+s", "ursa-ejf"):
                s = unit["series"]
                print(f"\nFigure 1: {job_name} on {engine} (CPU/NET/MEM %, {sc.name} scale)")
                print(multi_series_chart(
                    {"[CPU]Totl%": s["cpu"], "[NET]Recv%": s["net"], "[MEM]Used%": s["mem"]}
                ))
        rows.append(row)
    print()
    print(format_table(
        ["engine", "UE_cpu(LR)", "UE_cpu(CC)", "UE_cpu(Q14)", "UE_cpu(Q8)"],
        rows,
        title=f"Table 1 (single-job CPU UE, scale={sc.name})",
    ))
    return results


SPLIT = SplitExperiment("table1+fig1", unit_keys, run_unit, reduce)


def run(scale: str | Scale = "bench", seed: int = 0, show_charts: bool = True) -> dict:
    return ParallelRunner().run(SPLIT.name, scale, seed=seed, show_charts=show_charts)


if __name__ == "__main__":  # pragma: no cover
    run()
