"""The scheduling-tick fast path changes *nothing* but time.

``ReferenceUrsaSystem`` (``tests/scheduler/reference.py``) runs the frozen
pre-change scheduler (the brute-force placement, a forced queue resort
every tick, and unmemoized SRJF ranks).  Every optimization in the
fast path — lazy-heap stage selection with generation reuse, dirty-set
undo, cached usage tuples, resort elision, SRJF memoization — must leave
the simulation metrics pickle-byte-identical to that reference, for both
job-ordering policies, on the tiny scale's 4 machines and with the same
cores and memory spread over 32.
"""

import pickle

import pytest

from repro.cluster import Cluster
from repro.experiments.common import SCALES, run_to_completion
from repro.metrics import compute_metrics
from repro.scheduler import UrsaConfig, UrsaSystem, Worker
from repro.workloads import submit_workload, tpch2_workload

from ..scheduler.reference import ReferenceUrsaSystem, spread

_cache: dict = {}


def _workload(sc):
    return tpch2_workload(
        n_jobs=sc.n_jobs,
        scale=sc.workload_scale,
        arrival_interval=sc.arrival_interval,
        max_parallelism=sc.max_parallelism,
        partition_mb=sc.partition_mb,
    )


def _metrics(policy: str, legacy: bool = False, cached: bool = True,
             wide: bool = False, **flags) -> bytes:
    key = (policy, legacy, wide, tuple(sorted(flags.items())))
    if cached and key in _cache:
        return _cache[key]
    cfg = UrsaConfig(policy=policy, **flags)
    name = "ursa-ejf" if policy == "ejf" else "ursa-srjf"
    sc = SCALES["tiny"]
    spec = spread(sc.cluster) if wide else sc.cluster
    # what run_one_system does, on the configured or reference system
    system = (ReferenceUrsaSystem if legacy else UrsaSystem)(Cluster(spec), cfg)
    submit_workload(system, _workload(sc), seed=0)
    run_to_completion(system, sc, name)
    metrics = compute_metrics(system)
    blob = pickle.dumps(metrics)
    if cached:
        _cache[key] = blob
    return blob


@pytest.mark.parametrize("policy", ["ejf", "srjf"])
def test_fast_path_bit_identical_to_legacy(policy):
    assert _metrics(policy) == _metrics(policy, legacy=True)


def test_fast_path_bit_identical_in_task_mode():
    """The fig-7 ablation path (non-stage-aware lazy task heap)."""
    assert _metrics("ejf", stage_aware=False) == _metrics(
        "ejf", legacy=True, stage_aware=False
    )


@pytest.mark.parametrize("policy", ["ejf", "srjf"])
def test_vector_engine_bit_identical(policy):
    """On a 32-worker cluster the engine's column scorer reproduces the
    frozen legacy reference's metrics exactly."""
    assert _metrics(policy, wide=True) == _metrics(policy, legacy=True, wide=True)


def test_vector_engine_bit_identical_in_task_mode():
    assert _metrics("ejf", stage_aware=False, wide=True) == _metrics(
        "ejf", legacy=True, stage_aware=False, wide=True
    )


def test_ejf_never_resorts_worker_queues(monkeypatch):
    """EJF ranks are static, so the per-tick queue resort is elided; SRJF
    ranks track drained work, so its ticks resort."""
    calls = {"n": 0}
    resort = Worker.resort_queues

    def counting(self):
        calls["n"] += 1
        resort(self)

    monkeypatch.setattr(Worker, "resort_queues", counting)
    _metrics("ejf", cached=False)
    assert calls["n"] == 0
    _metrics("srjf", cached=False)
    assert calls["n"] > 0
