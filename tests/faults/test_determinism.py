"""ISSUE 5 acceptance: faults are deterministic and zero-cost when absent.

* With a fixed seeded plan, the optimized scheduler and the frozen
  reference tick (``tests/scheduler/reference.py``) produce byte-identical
  event streams and metrics, for both policies.
* ``fig_faults`` is bit-identical serial vs parallel.
* An empty :class:`FaultPlan` is runtime-equivalent to ``faults=None``:
  no controller is built and the event stream does not change.
* Pinning: with no plan, the ``table2`` and ``fig8`` payload digests match
  the values recorded on ``main`` before the fault layer landed — the
  subsystem cannot perturb failure-free experiments by even one byte.
"""

import contextlib
import hashlib
import io
import pickle

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.experiments.common import SCALES
from repro.faults import FaultPlan
from repro.metrics import compute_metrics
from repro.obs import recorder
from repro.perf import ParallelRunner
from repro.scheduler import UrsaConfig, UrsaSystem
from repro.workloads import submit_workload, tpch_workload

from ..scheduler.reference import ReferenceUrsaSystem

NUM_MACHINES = 4
PLAN = FaultPlan.seeded(
    seed=3, num_workers=NUM_MACHINES, window=(1.0, 6.0),
    crashes=1, blackouts=1, slowdowns=1, timeouts=1,
)


def _stream_digest(events):
    h = hashlib.sha256()
    for e in events:
        h.update(repr(sorted(e.items())).encode())
    return h.hexdigest()


def _run(plan, policy="ejf", legacy=False):
    rec = recorder.enable()
    try:
        cluster = Cluster(
            ClusterSpec(num_machines=NUM_MACHINES,
                        machine=ClusterSpec.paper_cluster().machine)
        )
        system_cls = ReferenceUrsaSystem if legacy else UrsaSystem
        system = system_cls(cluster, UrsaConfig(policy=policy, faults=plan))
        wl = tpch_workload(n_jobs=6, scale=0.02, arrival_interval=0.6,
                           max_parallelism=128, partition_mb=12.0)
        submit_workload(system, wl, seed=0)
        system.run(max_events=50_000_000)
    finally:
        recorder.disable()
    assert system.all_terminal
    return (_stream_digest(rec.events), len(rec.events),
            pickle.dumps(compute_metrics(system)), system)


@pytest.mark.parametrize("policy", ["ejf", "srjf"])
def test_faulted_fast_path_bit_identical_to_legacy(policy):
    opt = _run(PLAN, policy=policy, legacy=False)
    leg = _run(PLAN, policy=policy, legacy=True)
    assert opt[:3] == leg[:3]


def test_faulted_rerun_is_bit_identical():
    assert _run(PLAN)[:3] == _run(PLAN)[:3]


def test_empty_plan_is_runtime_equivalent_to_none():
    empty = _run(FaultPlan())
    none = _run(None)
    assert empty[:3] == none[:3]
    assert empty[3].fault_controller is None
    assert none[3].fault_controller is None


def _quiet(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


def test_fig_faults_parallel_bit_identical_to_serial():
    serial = _quiet(ParallelRunner(workers=0).run, "fig_faults", SCALES["tiny"])
    parallel = _quiet(ParallelRunner(workers=2).run, "fig_faults", SCALES["tiny"])
    assert pickle.dumps(parallel) == pickle.dumps(serial)


#: sha256 of the pickled {unit_key: payload} map at tiny scale, seed 0,
#: recorded on main immediately before the fault layer merged.  If one of
#: these moves, the fault subsystem changed failure-free behaviour.
PINNED_DIGESTS = {
    "table2": "c1767d1f653290eccc31690152b1f2056684cf482fc56f649b024e1f746f5b07",
    "fig8": "5e6520358deb2adb4fc40554a70da09553505eb9bee41f94810aed66b41aaae3",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_failure_free_experiments_pinned_to_pre_fault_baseline(name):
    from repro.experiments.registry import SPLIT_EXPERIMENTS

    split = SPLIT_EXPERIMENTS[name]
    sc = SCALES["tiny"]
    payloads = {k: split.run_unit(sc, k, seed=0) for k in split.unit_keys(sc)}
    digest = hashlib.sha256(pickle.dumps(payloads, protocol=4)).hexdigest()
    assert digest == PINNED_DIGESTS[name]
