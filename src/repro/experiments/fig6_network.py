"""Figure 6 — Ursa under 1 Gbps / 4 Gbps networks (§5.2).

"With 1 Gbps bandwidth, network becomes the bottleneck resource and Ursa
achieves high network utilization, while CPU is not highly used ... when we
increase the bandwidth to 4 Gbps the bottleneck switches back to CPU."

We run TPC-H2 at 1, 4 and 10 Gbps and check the crossover: at 1 Gbps the
mean network utilization exceeds the mean CPU utilization; at 10 Gbps CPU
exceeds network — Ursa drives whichever resource is the bottleneck.
"""

from __future__ import annotations

from ..cluster import Cluster
from ..metrics import compute_metrics, format_table, multi_series_chart
from ..perf.runner import ParallelRunner
from ..perf.units import SplitExperiment
from ..scheduler import UrsaSystem
from ..workloads import submit_workload, tpch2_workload
from .common import Scale, run_to_completion

__all__ = ["run", "SPLIT", "BANDWIDTHS_GBPS"]

BANDWIDTHS_GBPS = (1.0, 4.0, 10.0)


def unit_keys(sc: Scale) -> list[float]:
    return list(BANDWIDTHS_GBPS)


def run_unit(sc: Scale, gbps: float, seed: int = 0) -> dict:
    cluster = Cluster(sc.with_network(gbps).cluster)
    system = UrsaSystem(cluster)
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
    run_to_completion(system, sc, f"{gbps} Gbps")
    metrics = compute_metrics(system)
    end = system.makespan()
    t0, t1 = 0.1 * end, 0.7 * end
    cpu_mean = 100.0 * cluster.mean_utilization("cpu_used", t0, t1)
    net_mean = 100.0 * cluster.mean_utilization("net_used", t0, t1)
    _g, cpu = cluster.utilization_timeseries("cpu_used", t0, t1, dt=1.0)
    _g, net = cluster.utilization_timeseries("net_used", t0, t1, dt=1.0)
    return {
        "metrics": metrics, "cpu_mean": cpu_mean, "net_mean": net_mean,
        "series": {"cpu": cpu, "net": net},
    }


def reduce(sc: Scale, payloads: dict, show_charts: bool = True) -> dict:
    rows = []
    for gbps in BANDWIDTHS_GBPS:
        unit = payloads[gbps]
        rows.append([f"{gbps:.0f} Gbps", unit["metrics"].makespan, unit["cpu_mean"], unit["net_mean"]])
        if show_charts:
            print(f"\nFigure 6: Ursa on a {gbps:.0f} Gbps network ({sc.name} scale)")
            print(multi_series_chart(
                {"[CPU]Totl%": unit["series"]["cpu"], "[NET]Recv%": unit["series"]["net"]}
            ))
    print()
    print(format_table(
        ["network", "makespan", "mean CPU %", "mean NET %"],
        rows,
        title="Figure 6 (bottleneck switches with bandwidth)",
    ))
    return dict(payloads)


SPLIT = SplitExperiment("fig6", unit_keys, run_unit, reduce)


def run(scale: str | Scale = "bench", seed: int = 0, show_charts: bool = True) -> dict:
    return ParallelRunner().run(SPLIT.name, scale, seed=seed, show_charts=show_charts)


if __name__ == "__main__":  # pragma: no cover
    run()
