"""fig_faults — fault tolerance of monotask-level scheduling (§4 follow-up).

The paper's testbed is failure-free; this experiment asks the question its
design implies: because Ursa schedules *monotasks* and tracks lineage at
task granularity, a worker loss should cost only the work that actually
lived on the dead machine, not whole executors or whole jobs.

The sweep runs the TPC-H workload (the Table-2 setup) under seed-derived
fault plans crossing **policy** (EJF / SRJF) with **crash count** (0, 1, 2
permanent worker crashes, each plan also carrying one transient blackout
when any crashes are injected).  The ``crashes=0`` unit runs with
``faults=None`` — it is the failure-free control and is bit-identical to
the plain Table-2 run.

Reported per unit: makespan / mean JCT next to the recovery accounting —
tasks restarted, monotasks lost, charged retries, wasted (re-executed)
work, mean/max recovery time (fault → last restarted task re-completed),
and jobs failed outright (retry budget or a shrunken cluster).

Deterministic end to end: the same ``(scale, key, seed)`` produces
bit-identical payloads serially, under ``--parallel``, and on the tests'
frozen reference tick (pinned by ``tests/faults``).
"""

from __future__ import annotations

from typing import Optional

from ..cluster import Cluster
from ..faults import FaultPlan, FaultStats, RetryPolicy
from ..metrics import compute_metrics
from ..metrics.report import format_fault_rows
from ..perf.runner import ParallelRunner
from ..perf.units import SplitExperiment
from ..scheduler import UrsaConfig, UrsaSystem
from ..workloads import submit_workload
from .common import Scale
from .table2_tpch import workload

__all__ = ["run", "SPLIT", "POLICIES", "CRASH_COUNTS", "build_plan"]

POLICIES = ("ejf", "srjf")
CRASH_COUNTS = (0, 1, 2)

#: per-task retry budget used by every faulted unit
RETRY = RetryPolicy(max_attempts=3, backoff_base=0.5, backoff_factor=2.0)


def build_plan(sc: Scale, crashes: int, seed: int) -> Optional[FaultPlan]:
    """Seed-derived plan for one unit; ``None`` for the failure-free control
    (so that unit exercises the exact no-fault-layer code path)."""
    if crashes == 0:
        return None
    # faults land while the workload is in full swing: the submission phase
    # lasts n_jobs * arrival_interval seconds and execution trails it
    horizon = sc.n_jobs * sc.arrival_interval
    return FaultPlan.seeded(
        seed=seed,
        num_workers=sc.cluster.num_machines,
        window=(0.5 * horizon, 2.5 * horizon),
        crashes=crashes,
        blackouts=1,
    )


def unit_keys(sc: Scale) -> list[str]:
    return [f"{policy}-c{crashes}" for policy in POLICIES for crashes in CRASH_COUNTS]


def run_unit(sc: Scale, key: str, seed: int = 0) -> dict:
    policy, _, ctag = key.rpartition("-c")
    crashes = int(ctag)
    plan = build_plan(sc, crashes, seed)
    cluster = Cluster(sc.cluster)
    system = UrsaSystem(
        cluster, UrsaConfig(policy=policy, faults=plan, retry=RETRY)
    )
    submit_workload(system, workload(sc), seed=seed)
    system.run(max_events=sc.max_events)
    # unlike run_one_system, FAILED is an acceptable terminal state here:
    # graceful degradation under faults is part of what is being measured
    if not system.all_terminal:
        raise RuntimeError(f"fig_faults[{key}]: workload wedged mid-recovery")
    controller = system.fault_controller
    return {
        "metrics": compute_metrics(system),
        "faults": (controller.stats if controller else FaultStats()).as_dict(),
        "failed_jobs": sorted(j.job_id for j in system.failed_jobs),
    }


def reduce(sc: Scale, payloads: dict[str, dict]) -> dict[str, dict]:
    print(
        format_fault_rows(
            payloads,
            title=f"Fault tolerance (TPC-H, scale={sc.name}; "
            f"unit = policy-c<crashes>)",
        )
    )
    return payloads


SPLIT = SplitExperiment("fig_faults", unit_keys, run_unit, reduce)


def run(scale: str | Scale = "bench", seed: int = 0) -> dict[str, dict]:
    return ParallelRunner().run(SPLIT.name, scale, seed=seed)


if __name__ == "__main__":  # pragma: no cover
    run()
