"""fig_service — open-loop service mode: SLOs vs offered load.

The paper's experiments submit a fixed batch and wait; a production
cluster is an open system — requests keep arriving whether or not it
keeps up.  This experiment drives the full Ursa admission/placement
stack with deterministic arrival processes and reports service-level
metrics over a warmup-excluded window: JCT p50/p99, admission-queue
wait, goodput, and the shed rate once backpressure engages.

The sweep crosses arrival **shape** with offered **load**:

* ``poisson-x{0.5,1.0,1.5,2.0}`` — a constant-rate ramp through and past
  the cluster's capacity (the SLO "hockey stick");
* ``diurnal-x1.0`` / ``bursty-x1.0`` — shaped load at nominal rate,
  where the autoscaler earns its keep;
* ``poisson-x2.0-noscale`` — the overload point with elasticity off:
  the fixed-fleet control the autoscaled row is compared against.

Offered load is ``multiplier × base_rate(sc)``, where the base rate is
the analytic CPU-saturation point of the service job mix (see
:func:`base_rate`) derated to target ~60 % occupancy at ``x1.0``.  Every
unit is an independent (cluster, system, driver) build, so the sweep
runs bit-identically serial or parallel (pinned by ``tests/service``).
"""

from __future__ import annotations

from ..cluster import Cluster
from ..scheduler import UrsaConfig, UrsaSystem
from ..service import (
    AutoscalerConfig,
    ServiceConfig,
    ServiceDriver,
    format_service_rows,
    make_process,
    mean_job_cpu_mb,
    validate_report,
)
from ..perf.runner import ParallelRunner
from ..perf.units import SplitExperiment
from .common import Scale

__all__ = [
    "run", "SPLIT", "UNITS", "base_rate", "service_config", "build_unit",
]

#: (arrival process, load multiplier, autoscaler on?) per sweep unit
UNITS: dict[str, tuple[str, float, bool]] = {
    "poisson-x0.5": ("poisson", 0.5, True),
    "poisson-x1.0": ("poisson", 1.0, True),
    "poisson-x1.5": ("poisson", 1.5, True),
    "poisson-x2.0": ("poisson", 2.0, True),
    "diurnal-x1.0": ("diurnal", 1.0, True),
    "bursty-x1.0": ("bursty", 1.0, True),
    "poisson-x2.0-noscale": ("poisson", 2.0, False),
}

#: fraction of the CPU-saturation rate offered at multiplier 1.0
_TARGET_OCCUPANCY = 0.6

#: tenants sampled by every arrival process
N_TENANTS = 1000


def base_rate(sc: Scale) -> float:
    """Nominal offered load (jobs/s): ~60 % of the CPU-saturation rate.

    The cluster processes ``total_cores × core_rate_mbps`` MB of CPU work
    per second; dividing by the mean CPU work of one service job gives
    the arrival rate at which CPU alone would saturate.  ``x1.0`` derates
    that to a loaded-but-stable point; ``x2.0`` is firmly past capacity.
    """
    machine = sc.cluster.machine
    cpu_mbps = sc.cluster.total_cores * machine.core_rate_mbps
    return _TARGET_OCCUPANCY * cpu_mbps / mean_job_cpu_mb(sc)


def service_config(sc: Scale, elastic: bool) -> ServiceConfig:
    """Window + backpressure + elasticity knobs, derived from the scale.

    The horizon covers several batch-equivalents of submissions so the
    window sees steady state; warmup drops the first sixth (cold cluster,
    empty pipelines) and the drain grace gives in-flight work half a
    horizon to finish before being counted as in flight.
    """
    horizon = 6.0 * sc.n_jobs * sc.arrival_interval
    auto = None
    if elastic:
        n = sc.cluster.num_machines
        auto = AutoscalerConfig(
            interval=1.0,
            min_workers=1,
            max_workers=n,
            initial_workers=max(1, n // 2),
            cooldown=3.0,
        )
    return ServiceConfig(
        horizon=horizon,
        warmup=horizon / 6.0,
        drain_grace=horizon / 2.0,
        queue_limit=8,
        autoscaler=auto,
    )


def build_unit(sc: Scale, key: str, seed: int = 0) -> ServiceDriver:
    """Fresh (cluster, system, driver) for one sweep unit."""
    process_name, mult, elastic = UNITS[key]
    process = make_process(
        process_name, rate_per_s=mult * base_rate(sc), n_tenants=N_TENANTS
    )
    cluster = Cluster(sc.cluster)
    system = UrsaSystem(cluster, UrsaConfig(policy="srjf"))
    return ServiceDriver(
        system, process, service_config(sc, elastic), sc, seed=seed
    )


def unit_keys(sc: Scale) -> list[str]:
    return list(UNITS)


def run_unit(sc: Scale, key: str, seed: int = 0) -> dict:
    report = build_unit(sc, key, seed=seed).run()
    errs = validate_report(report)
    if errs:
        raise RuntimeError(f"fig_service[{key}]: invalid SLO report: {errs}")
    return report


def reduce(sc: Scale, payloads: dict[str, dict]) -> dict[str, dict]:
    print(
        format_service_rows(
            payloads,
            title=f"Service SLOs vs offered load (scale={sc.name}; "
            f"base rate {base_rate(sc):.2f} jobs/s)",
        )
    )
    return payloads


SPLIT = SplitExperiment("fig_service", unit_keys, run_unit, reduce)


def run(scale: str | Scale = "bench", seed: int = 0) -> dict[str, dict]:
    return ParallelRunner().run(SPLIT.name, scale, seed=seed)


if __name__ == "__main__":  # pragma: no cover
    run()
