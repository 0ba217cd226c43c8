"""Oracle for the placement engine's persistent worker columns.

``UrsaPlacement`` derives its worker columns once per worker list and then
re-derives only the rows of workers that reported a change through the
dirty seam.  After every scheduling tick of a full run, those columns (and
their numpy mirror, when built) must equal bit for bit a ``_VectorState``
freshly built from the same workers — under both job policies, under
crash, blackout and grant-timeout faults, and in service mode with the
autoscaler parking and waking workers.  Each input change is also
checked to mark its worker on its own: in a full run most changes share an
event with another mark of the same worker, which would hide a missing one.
"""

import pytest

from repro.cluster import Cluster
from repro.dataflow import ResourceType
from repro.experiments import fig_service
from repro.experiments.common import SCALES
from repro.experiments.fig8_fig9_fig10_synthetic import params_for
from repro.faults import FaultPlan, GrantTimeout, WorkerBlackout, WorkerCrash
from repro.scheduler import UrsaConfig, UrsaPlacement, UrsaSystem
from repro.scheduler.placement import _VectorState
from repro.workloads import submit_workload, synthetic_setting1, tpch_workload

from .test_worker import single_worker_setup

TINY = SCALES["tiny"]


def _rows(state) -> list:
    """Every column, floats as hex so the comparison is bitwise."""
    return [list(state.alive)] + [
        [x.hex() for x in col]
        for col in (state.d0, state.d1, state.d2, state.mem_avail,
                    state.mem_cap, state.inv0, state.inv1, state.inv2)
    ]


def _mirror_rows(cols) -> list:
    alive, *floats = cols
    return [alive.tolist()] + [[x.hex() for x in c.tolist()] for c in floats]


class _Oracle:
    """Compares the engine's columns with a fresh build after every
    simulation event of one system — so after every tick, and also between
    ticks, where a change that shares no event with another mark of the
    same worker cannot hide behind it."""

    def __init__(self, system, forced_broadcast: bool = False):
        self.system = system
        self.ticks = 0
        #: alive-worker counts the placement rounds saw
        self.alive_counts: set[int] = set()
        self.mirror_checked = False
        if forced_broadcast:  # numpy rows (and mirror patches) on 4 workers
            system.placement.broadcast_min_workers = 2
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
        fresh = _VectorState(system.workers, placement.ept)
        assert _rows(state) == _rows(fresh), f"stale row at t={system.sim.now}"
        if state._cols is not None:
            assert _mirror_rows(state._cols) == _rows(fresh)
            self.mirror_checked = True


@pytest.mark.parametrize("forced_broadcast", [False, True])
@pytest.mark.parametrize("policy", ["ejf", "srjf"])
def test_setting1_batch_columns_match_fresh_build(policy, forced_broadcast):
    system = UrsaSystem(Cluster(TINY.cluster), UrsaConfig(policy=policy))
    oracle = _Oracle(system, forced_broadcast)
    submit_workload(system, synthetic_setting1(params_for(TINY), n_jobs=3), seed=0)
    system.run()
    assert system.all_done
    assert oracle.ticks > 20
    assert oracle.mirror_checked == forced_broadcast


@pytest.mark.parametrize("forced_broadcast", [False, True])
def test_faulted_batch_columns_match_fresh_build(forced_broadcast):
    plan = FaultPlan((
        GrantTimeout(at=1.5, worker=0, delay=0.25),
        WorkerCrash(at=3.0, worker=1),
        WorkerBlackout(at=4.0, worker=2, duration=3.0),
        GrantTimeout(at=5.0, worker=3),
    ))
    system = UrsaSystem(Cluster(TINY.cluster), UrsaConfig(faults=plan))
    oracle = _Oracle(system, forced_broadcast)
    wl = tpch_workload(
        n_jobs=6, scale=TINY.workload_scale, arrival_interval=TINY.arrival_interval,
        max_parallelism=TINY.max_parallelism, partition_mb=TINY.partition_mb,
    )
    submit_workload(system, wl, seed=0)
    system.run()
    assert system.all_terminal
    stats = system.fault_controller.stats
    assert stats.worker_crashes == stats.blackouts == 1
    assert stats.grant_timeouts == 2
    # rounds ran with 4, 3 (crash) and 2 (crash + blackout) alive workers
    assert {2, 3, 4} <= oracle.alive_counts


@pytest.mark.parametrize("forced_broadcast", [False, True])
def test_service_autoscaler_columns_match_fresh_build(forced_broadcast):
    driver = fig_service.build_unit(TINY, "poisson-x1.0", seed=0)
    oracle = _Oracle(driver.system, forced_broadcast)
    report = driver.run()
    assert report["counts"]["generated"] > 0
    # the autoscaler parked workers at start and woke some of them up
    assert len(oracle.alive_counts) > 1


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
    placement = UrsaPlacement(ept=0.3)
    state = placement._synced_state(workers)
    if change in _SETUP:
        _CHANGES[_SETUP[change]](worker, jm, state)
        placement._synced_state(workers)
    assert state.dirty == set()
    _CHANGES[change](worker, jm, state)
    assert state.dirty == {worker.index}
    assert placement._synced_state(workers) is state
    assert _rows(state) == _rows(_VectorState(workers, placement.ept))
