"""The test oracle's own mechanism.

``ReferenceUrsaSystem`` must really run the pre-fast-path tick, or every
optimized-vs-reference comparison would quietly compare the fast path with
itself.  This pins each of its three differences.
"""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.dataflow import ResourceType
from repro.scheduler import (
    SmallestRemainingJobFirst,
    UrsaConfig,
    UrsaPlacement,
    UrsaSystem,
    Worker,
)
from repro.workloads import submit_workload, tpch_workload

from .reference import ReferenceUrsaPlacement, ReferenceUrsaSystem, UnmemoizedSRJF
from .test_ordering import make_job


def _cluster():
    return Cluster(
        ClusterSpec(num_machines=3, machine=ClusterSpec.paper_cluster().machine)
    )


def _count(monkeypatch, cls, name):
    calls = {"n": 0}
    original = getattr(cls, name)

    def counting(self, *args):
        calls["n"] += 1
        return original(self, *args)

    monkeypatch.setattr(cls, name, counting)
    return calls


def test_reference_system_runs_all_three_legacy_differences(monkeypatch):
    # 1. brute-force placement, where the default config builds the engine
    ejf = ReferenceUrsaSystem(_cluster(), UrsaConfig(policy="ejf"))
    assert type(ejf.placement) is ReferenceUrsaPlacement
    assert type(UrsaSystem(_cluster()).placement) is UrsaPlacement

    # 2. every tick resorts every worker's queues, under EJF too (whose
    #    static ranks let the fast path elide the resort)
    ticks = _count(monkeypatch, UrsaSystem, "_tick")
    resorts = _count(monkeypatch, Worker, "resort_queues")
    submit_workload(ejf, tpch_workload(n_jobs=2, scale=0.02, arrival_interval=0.5,
                                       max_parallelism=64, partition_mb=12.0, seed=5))
    ejf.run(max_events=5_000_000)
    assert ejf.all_done
    assert ticks["n"] > 0
    assert resorts["n"] == ticks["n"] * len(ejf.workers)

    # 3. SRJF's _dot is recomputed on every call: a change to a job's
    #    remaining work that does not bump work_version (so the memo would
    #    hide it) still shows; the product's SRJF has no switch to do that
    with pytest.raises(TypeError):
        SmallestRemainingJobFirst(memoize=False)
    srjf = ReferenceUrsaSystem(_cluster(), UrsaConfig(policy="srjf"))
    assert type(srjf.policy) is UnmemoizedSRJF
    for policy, recomputes in ((srjf.policy, True), (SmallestRemainingJobFirst(), False)):
        a, b = make_job(0, 0.0), make_job(1, 0.0, input_mb=300.0)
        policy.refresh([a, b], now=0.0)
        before = policy._dot(a)
        a.remaining_work[ResourceType.CPU] /= 2
        assert (policy._dot(a) != before) is recomputes
