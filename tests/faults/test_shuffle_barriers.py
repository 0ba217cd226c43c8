"""Shuffle-barrier counters under a mid-shuffle worker crash.

The fault path rebuilds every barrier's countdown and every blocked task's
``remaining_parents`` from task states; both must equal a brute-force count
over the task-level dependencies, including barriers whose producers had
only partly finished when the worker died.
"""

from repro.cluster import Cluster
from repro.dataflow.monotask import TaskState
from repro.execution.jobmanager import JobManager
from repro.experiments.common import SCALES
from repro.experiments.fig8_fig9_fig10_synthetic import params_for
from repro.faults import FaultPlan, WorkerCrash
from repro.scheduler import UrsaConfig, UrsaSystem
from repro.workloads import submit_workload, synthetic_setting1

DONE = TaskState.DONE


def _unfinished(tasks) -> int:
    return sum(1 for t in tasks if t.state is not DONE)


def test_mid_shuffle_crash_recount_matches_brute_force(monkeypatch):
    seen: list[tuple[int, int]] = []
    recount = JobManager.fault_recount_dependencies

    def checked(self):
        recount(self)
        for barrier in self.plan.barriers:
            assert barrier.remaining == _unfinished(barrier.producers)
        for task in self.plan.tasks:
            if task.state is TaskState.BLOCKED:
                parents = task.parents
                brute = _unfinished(parents)
                assert task.remaining_parents == brute
                seen.append((brute, len(parents)))
            elif task.state is TaskState.READY:
                assert task.remaining_parents == 0 == _unfinished(task.parents)

    monkeypatch.setattr(JobManager, "fault_recount_dependencies", checked)
    sc = SCALES["tiny"]
    system = UrsaSystem(
        Cluster(sc.cluster),
        UrsaConfig(faults=FaultPlan((WorkerCrash(at=12.0, worker=1),))),
    )
    jobs = submit_workload(system, synthetic_setting1(params_for(sc), n_jobs=1), seed=0)
    plans = [job.plan for job in jobs]  # finished jobs are retired
    system.run(max_events=200_000)  # a counter that never reaches zero stalls

    # the crash landed mid-shuffle: some consumer waited on a barrier whose
    # producers had partly finished
    assert any(0 < brute < n for brute, n in seen)
    assert system.all_done and not system.failed_jobs
    assert system.fault_controller.stats.tasks_restarted > 0
    for plan in plans:
        for barrier in plan.barriers:
            assert barrier.remaining == 0
