"""Oracle for the placement engine's persistent worker columns.

``UrsaPlacement`` derives its worker columns once per worker list and then
re-derives only the rows of workers that reported a change through the
dirty seam.  After every scheduling tick of a full run, those columns must
equal bit for bit a ``_VectorState`` freshly built from the same workers —
under both job policies, under crash, blackout and grant-timeout faults,
and in service mode with the autoscaler parking and waking workers.  Each
run goes on the tiny scale's 4 machines and on the same cores and memory
spread over 32, where the run must also match the frozen reference system
result for result.  Each input change is also checked to mark its worker
on its own: in a full run most changes share an event with another mark of
the same worker, which would hide a missing one.
"""

import pickle
from array import array
from dataclasses import replace

import pytest

from repro.cluster import Cluster
from repro.dataflow import ResourceType
from repro.experiments import fig_service
from repro.experiments.common import SCALES
from repro.experiments.fig8_fig9_fig10_synthetic import params_for
from repro.faults import FaultPlan, GrantTimeout, WorkerBlackout, WorkerCrash
from repro.metrics import compute_metrics
from repro.scheduler import UrsaConfig, UrsaPlacement, UrsaSystem
from repro.scheduler.placement import _VectorState
from repro.workloads import submit_workload, synthetic_setting1, tpch_workload

from .reference import ReferenceUrsaSystem, spread
from .test_worker import single_worker_setup

TINY = SCALES["tiny"]
#: the tiny scale's cores and memory on 32 machines
WIDE_TINY = replace(TINY, cluster=spread(TINY.cluster))


def _rows(state) -> list:
    """Every column, floats as their IEEE-754 bytes so the comparison is
    bitwise."""
    return [list(state.alive)] + [
        array("d", col).tobytes()
        for col in (state.d0, state.d1, state.d2, state.mem_avail,
                    state.mem_cap, state.inv0, state.inv1, state.inv2)
    ]


class _Oracle:
    """Compares the engine's columns with a fresh build after every
    simulation event of one system — so after every tick, and also between
    ticks, where a change that shares no event with another mark of the
    same worker cannot hide behind it."""

    def __init__(self, system):
        self.system = system
        self.ticks = 0
        #: alive-worker counts the placement rounds saw
        self.alive_counts: set[int] = set()
        sim = system.sim
        step = sim.step

        def checked_step():
            stepped = step()
            self.check()
            return stepped

        sim.step = checked_step
        tick = system._tick

        def counted_tick():
            tick()
            self.ticks += 1
            self.alive_counts.add(sum(w.alive for w in system.workers))

        system._tick = counted_tick

    def check(self) -> None:
        system = self.system
        placement = system.placement
        if placement._state is None:
            return  # no round has scored anything yet
        state = placement._synced_state(system.workers)
        fresh = _VectorState(system.workers)
        assert _rows(state) == _rows(fresh), f"stale row at t={system.sim.now}"


def _batch_run(system_cls, sc, config, submit, oracle=False):
    """One batch run; returns the pickled metrics and the oracle (if any)."""
    system = system_cls(Cluster(sc.cluster), config)
    checker = _Oracle(system) if oracle else None
    submit(system)
    system.run()
    return system, checker, pickle.dumps(compute_metrics(system))


def _matches_reference(sc, config, submit, metrics) -> bool:
    return _batch_run(ReferenceUrsaSystem, sc, config, submit)[2] == metrics


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("policy", ["ejf", "srjf"])
def test_setting1_batch_columns_match_fresh_build(policy, wide):
    sc = WIDE_TINY if wide else TINY
    config = UrsaConfig(policy=policy)

    def submit(system):
        submit_workload(system, synthetic_setting1(params_for(TINY), n_jobs=3), seed=0)

    system, oracle, metrics = _batch_run(UrsaSystem, sc, config, submit, oracle=True)
    assert system.all_done
    assert oracle.ticks > 20
    assert max(oracle.alive_counts) == sc.cluster.num_machines
    if wide:
        assert _matches_reference(sc, config, submit, metrics)


@pytest.mark.parametrize("wide", [False, True])
def test_faulted_batch_columns_match_fresh_build(wide):
    sc = WIDE_TINY if wide else TINY
    plan = FaultPlan((
        GrantTimeout(at=1.5, worker=0, delay=0.25),
        WorkerCrash(at=3.0, worker=1),
        WorkerBlackout(at=4.0, worker=2, duration=3.0),
        GrantTimeout(at=5.0, worker=3),
    ))
    config = UrsaConfig(faults=plan)

    def submit(system):
        wl = tpch_workload(
            n_jobs=6, scale=TINY.workload_scale, arrival_interval=TINY.arrival_interval,
            max_parallelism=TINY.max_parallelism, partition_mb=TINY.partition_mb,
        )
        submit_workload(system, wl, seed=0)

    system, oracle, metrics = _batch_run(UrsaSystem, sc, config, submit, oracle=True)
    assert system.all_terminal
    stats = system.fault_controller.stats
    assert stats.worker_crashes == stats.blackouts == 1
    assert stats.grant_timeouts == 2
    # rounds ran with every worker, one down (crash) and two down (crash +
    # blackout)
    n = sc.cluster.num_machines
    assert {n - 2, n - 1, n} <= oracle.alive_counts
    if wide:
        assert _matches_reference(sc, config, submit, metrics)


@pytest.mark.parametrize("wide", [False, True])
def test_service_autoscaler_columns_match_fresh_build(wide, monkeypatch):
    sc = WIDE_TINY if wide else TINY
    driver = fig_service.build_unit(sc, "poisson-x1.0", seed=0)
    oracle = _Oracle(driver.system)
    report = driver.run()
    assert report["counts"]["generated"] > 0
    # the autoscaler parked workers at start and woke some of them up
    assert len(oracle.alive_counts) > 1
    if wide:
        monkeypatch.setattr(fig_service, "UrsaSystem", ReferenceUrsaSystem)
        reference = fig_service.build_unit(sc, "poisson-x1.0", seed=0)
        assert type(reference.system) is ReferenceUrsaSystem
        assert reference.run() == report


# ----------------------------------------------------------------------
# every row-input change marks its worker, in isolation
# ----------------------------------------------------------------------
def _first_cpu_monotask(jm):
    task = next(iter(jm.ready_tasks))
    return task, next(m for m in task.monotasks if m.rtype is ResourceType.CPU)


def _grant(worker, jm):
    """Start one CPU monotask through the queue, outside any placement."""
    task, mt = _first_cpu_monotask(jm)
    task.worker = worker.index
    worker.enqueue(jm, mt)


def _complete(worker, jm):
    _task, mt = _first_cpu_monotask(jm)
    mt.started_at, mt.finished_at = 0.0, 2.0
    worker._account_completion(mt)


_CHANGES = {
    "add_assigned_task": lambda w, jm, st: w.add_assigned_task(_first_cpu_monotask(jm)[0]),
    "remove_assigned_task": lambda w, jm, st: w.remove_assigned_task(_first_cpu_monotask(jm)[0]),
    "cpu grant": lambda w, jm, st: _grant(w, jm),
    "release_running": lambda w, jm, st: w.release_running(ResourceType.CPU),
    "completion": lambda w, jm, st: _complete(w, jm),
    "fault_crash": lambda w, jm, st: w.fault_crash(),
    "fault_rejoin": lambda w, jm, st: w.fault_rejoin(),
    "reserve_memory": lambda w, jm, st: w.machine.reserve_memory(100.0),
    "try_reserve_memory": lambda w, jm, st: w.machine.try_reserve_memory(100.0),
    "release_memory": lambda w, jm, st: w.machine.release_memory(50.0),
    "permanent commit": lambda w, jm, st: st.commit(w.index, (5.0, 0.0, 0.0), 10.0),
}

#: changes that need an earlier one to undo
_SETUP = {
    "remove_assigned_task": "add_assigned_task",
    "release_running": "cpu grant",
    "fault_rejoin": "fault_crash",
    "release_memory": "reserve_memory",
}


@pytest.mark.parametrize("change", sorted(_CHANGES))
def test_each_row_input_change_marks_its_worker(change):
    _cluster, worker, jm, _backend = single_worker_setup(cores=1, n_tasks=2)
    workers = [worker]
    placement = UrsaPlacement()
    state = placement._synced_state(workers)
    if change in _SETUP:
        _CHANGES[_SETUP[change]](worker, jm, state)
        placement._synced_state(workers)
    assert state.dirty == set()
    _CHANGES[change](worker, jm, state)
    assert state.dirty == {worker.index}
    assert placement._synced_state(workers) is state
    assert _rows(state) == _rows(_VectorState(workers))
