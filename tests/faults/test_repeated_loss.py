"""Lineage recovery across two worker losses.

A partition a crash drops while every reader of it has finished is not
re-produced then: nothing needs it.  When a later loss restarts one of
those finished readers, the restart must re-produce that partition too —
otherwise the reader re-resolves its inputs against a store that lacks it.
"""

from repro.cluster import Cluster, ClusterSpec
from repro.faults import FaultPlan, WorkerBlackout, WorkerCrash
from repro.obs import attribution, recorder
from repro.scheduler import UrsaConfig, UrsaSystem
from repro.workloads import submit_workload, tpch_workload


def test_crash_then_blackout_reproduces_partitions_lost_earlier():
    plan = FaultPlan((
        WorkerCrash(at=20.0, worker=2),
        WorkerBlackout(at=23.0, worker=3, duration=4.0),
    ))
    rec = recorder.enable()
    try:
        cluster = Cluster(
            ClusterSpec(num_machines=4, machine=ClusterSpec.paper_cluster().machine)
        )
        system = UrsaSystem(cluster, UrsaConfig(faults=plan))
        wl = tpch_workload(n_jobs=6, scale=0.02, arrival_interval=0.6)
        submit_workload(system, wl, seed=0)
        system.run()
    finally:
        recorder.disable()
    assert system.all_terminal
    stats = system.fault_controller.stats
    assert stats.worker_crashes == stats.blackouts == 1
    assert attribution.validate(attribution.attribute(rec.events)) == []
