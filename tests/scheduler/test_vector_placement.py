"""Property tests pinning the placement engine's columnar scorer to the
frozen reference.

The engine claims *bit*-identity, not approximate equality: every F(t, w)
it produces — through a score row, a best-worker scan and the single-pair
``score_one`` refresh — must equal the reference scorer's float exactly,
across resource mixes, the D_r = 0 blocking rule, Inc-capping, memory
infeasibility, dead workers and locality pins.  These tests enumerate
randomized states on clusters of 4–6 and of 32 workers and compare
decision-for-decision and float-for-float.
"""

import pickle
import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.cluster import Cluster
from repro.dataflow import ResourceType
from repro.experiments.common import SCALES
from repro.experiments.fig8_fig9_fig10_synthetic import params_for
from repro.metrics import compute_metrics
from repro.scheduler import EarliestJobFirst, UrsaConfig, UrsaPlacement, UrsaSystem
from repro.scheduler.placement import _VectorState
from repro.workloads import submit_workload, synthetic_setting1

from .reference import (
    WIDE, ReferenceUrsaPlacement, ReferenceUrsaSystem, _task_usage, _WorkerView, spread,
)
from .test_placement import _randomized_setup


TINY = SCALES["tiny"]


def _collect_profiles(stages):
    """Distinct (usage, est_mem) profiles over every ready task."""
    profiles = []
    seen = set()
    for stage in stages:
        for task in stage.tasks:
            usage = _task_usage(task, False)
            key = (usage, task.est_mem_mb)
            if key not in seen:
                seen.add(key)
                profiles.append(key)
    return profiles


def _scalar_row(placement, views, stage, usage, mem):
    """Brute-force reference row: the reference scorer per worker."""
    task = stage.tasks[0]
    task_mem = task.est_mem_mb
    try:
        task.est_mem_mb = mem
        out = []
        for view in views:
            f = placement._score(task, usage, view)
            out.append(float("-inf") if f is None else f)
        return out
    finally:
        task.est_mem_mb = task_mem


@pytest.mark.parametrize("seed", range(12))
def test_score_row_matches_bruteforce_scalar_scorer(seed):
    """Score rows == per-worker reference F(t, w), float-for-float, on
    randomized worker states (mixed loads, blocking, mem pressure); the
    best-worker scan picks the reference's first strict maximum."""
    for machines in (6, WIDE):
        workers, stages = _randomized_setup(seed, n_jobs=4, machines=machines)
        rng = random.Random(seed)
        for w in rng.sample(workers, 2):
            w.alive = rng.random() < 0.5  # dead workers must score -inf
        placement = ReferenceUrsaPlacement(ept=0.3)
        views = [_WorkerView(w, i, ept=0.3) for i, w in enumerate(workers)]
        state = _VectorState(workers)
        for usage, mem in _collect_profiles(stages):
            expected = _scalar_row(placement, views, stages[0], usage, mem)
            # exact: same floats, same -inf slots
            assert state.row(usage, mem) == expected
            for i in range(len(workers)):
                assert state.score_one(i, usage, mem) == expected[i]
            best = max(expected)
            first = expected.index(best) if best != float("-inf") else -1
            assert state.best(usage, mem) == (best, first)


def test_score_row_covers_blocking_capping_and_memory():
    """Directed edge cases: a zero-headroom resource blocks, a huge task's
    Inc is capped at D_r, and memory infeasibility wins over everything."""
    workers, stages = _randomized_setup(0, n_jobs=1, machines=4)
    state = _VectorState(workers)
    usage = (10.0, 0.0, 0.0)

    state.d0[1] = 0.0  # blocking rule: needed resource with zero headroom
    assert state.row(usage, 0.0)[1] == float("-inf")

    huge = (1e9, 1e9, 1e9)  # Inc-capping: F bounded by sum of D_r^2 (+ mem)
    for i, f in enumerate(state.row(huge, 0.0)):
        if f != float("-inf"):
            cap = state.d0[i] ** 2 + state.d1[i] ** 2 + state.d2[i] ** 2
            assert f <= cap + 1e-12

    too_big = max(state.mem_cap) * 2.0
    assert all(f == float("-inf") for f in state.row(usage, too_big))
    assert state.best(usage, too_big) == (float("-inf"), -1)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("stage_aware", [True, False])
def test_vector_engine_matches_scalar_and_reference(seed, stage_aware):
    """Full placement rounds on 4 and on 32 workers: the engine and the
    frozen brute-force reference must agree on every (task, worker,
    score) — with continuous task sizes and with stages that mix shared and
    one-off profiles."""

    def run(make, machines, repeated_sizes):
        workers, stages = _randomized_setup(
            seed, n_jobs=4, machines=machines, repeated_sizes=repeated_sizes)
        rng = random.Random(seed * 31 + 7)
        for stage in stages:  # sprinkle locality pins over the ready set
            for task in stage.tasks:
                if rng.random() < 0.2:
                    task.locality = rng.randrange(len(workers))
        out = make().place(stages, workers, 25.0, EarliestJobFirst(weight=0.1))
        return [(a.jm.job.job_id, a.task.task_id, a.worker, a.score) for a in out]

    for machines in (4, WIDE):
        for repeated_sizes in (0, 2):
            expected = run(
                lambda: ReferenceUrsaPlacement(stage_aware=stage_aware),
                machines, repeated_sizes)
            assert expected
            assert run(lambda: UrsaPlacement(stage_aware=stage_aware),
                       machines, repeated_sizes) == expected


def test_commit_restore_roundtrip_patches_numpy_mirror():
    """Tentative commits shrink the committed worker's score and a restore
    puts back every column and every score row, on 32 workers."""
    workers, _ = _randomized_setup(3, n_jobs=1, machines=WIDE)
    state = _VectorState(workers)
    before = (list(state.d0), list(state.d1), list(state.d2), list(state.mem_avail))
    before_row = state.row((3.0, 2.0, 1.0), 64.0)

    touched = {}
    state.commit(2, (3.0, 2.0, 1.0), 64.0, touched)
    state.commit(2, (1.0, 0.0, 0.5), 32.0, touched)  # second commit, one snapshot
    assert list(touched) == [2]
    changed = state.row((3.0, 2.0, 1.0), 64.0)
    assert changed[2] != before_row[2] or changed[2] == float("-inf")
    assert changed[:2] + changed[3:] == before_row[:2] + before_row[3:]

    state.restore(2, touched[2])
    assert (list(state.d0), list(state.d1), list(state.d2),
            list(state.mem_avail)) == before
    assert state.row((3.0, 2.0, 1.0), 64.0) == before_row


def test_ursa_config_selects_vector_engine():
    """The default config places through the engine, and no config field
    selects another tick: the reference lives only in the tests."""
    from repro.cluster import Cluster, ClusterSpec
    from repro.scheduler import UrsaConfig, UrsaSystem

    def system(**flags):
        cluster = Cluster(ClusterSpec.small(num_machines=2, cores=4, core_rate_mbps=10.0))
        return UrsaSystem(cluster, UrsaConfig(**flags))

    assert type(system().placement) is UrsaPlacement
    with pytest.raises(TypeError):
        system(legacy_tick=True)


# ----------------------------------------------------------------------
# blocked rounds: the engine's early return must agree with the reference
# ----------------------------------------------------------------------
def _cpu_block(w):
    """D_cpu(w) = 0: every slot busy and a backlog longer than EPT."""
    w.running[ResourceType.CPU] = w.machine.spec.cores
    w.assigned_work[ResourceType.CPU] = 1e6


def _mem_block(w, stages, keep=None):
    """Free memory below every ready task's estimate (but above zero), or
    ``keep`` MB of it."""
    if keep is None:
        keep = min(t.est_mem_mb for s in stages for t in s.tasks) / 2
    w.machine.reserve_memory(w.machine.memory.available - keep)


def _blocked_round(seed, kind, machines=4):
    """A randomized round (as in ``_randomized_setup``) turned into one
    where every task scores ``-inf`` — or, for the ``open-*`` kinds, one
    that only looks blocked and must still place."""
    workers, stages = _randomized_setup(
        seed, n_jobs=4, machines=machines, repeated_sizes=2)
    rng = random.Random(seed * 17 + 3)
    tasks = [t for s in stages for t in s.tasks]
    if kind == "cpu":
        for w in workers:
            _cpu_block(w)
    elif kind == "memory":
        for w in workers:
            _mem_block(w, stages)
    elif kind in ("dead-cpu", "dead-memory"):
        # only dead workers have headroom; the alive ones are blocked
        for w in workers[:2]:
            w.alive = False
        for w in workers[2:]:
            if kind == "dead-cpu":
                _cpu_block(w)
            else:
                _mem_block(w, stages)
    elif kind == "mixed":
        # neighbouring workers blocked by different rules: no single rule
        # covers the round, so it is scored (and places nothing)
        for i, w in enumerate(workers):
            if i % 4 == 1:
                _mem_block(w, stages)
            elif i % 4 == 2:
                w.alive = False
            else:
                _cpu_block(w)
    elif kind == "pinned":
        for w in workers:
            _cpu_block(w)
        for t in tasks:
            if rng.random() < 0.5:
                t.locality = rng.randrange(len(workers))
    elif kind == "open-one-worker":
        # CPU-blocked everywhere but on one alive worker
        for w in workers[1:]:
            _cpu_block(w)
    elif kind == "open-small-task":
        # free memory between the smallest and the largest estimate
        mems = sorted(t.est_mem_mb for t in tasks)
        for w in workers:
            _mem_block(w, stages, keep=(mems[0] + mems[-1]) / 2)
    elif kind == "open-cpu-free-task":
        # every worker CPU-blocked, but one task needs no CPU
        for w in workers:
            _cpu_block(w)
        tasks[rng.randrange(len(tasks))].est_cpu_mb = 0.0
    return workers, stages


#: rounds the engine proves empty before scoring
BOUNDED = ["cpu", "memory", "dead-cpu", "dead-memory", "pinned"]
BLOCKED = BOUNDED + ["mixed"]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("stage_aware", [True, False])
@pytest.mark.parametrize(
    "kind", BLOCKED + ["open-one-worker", "open-small-task", "open-cpu-free-task"])
def test_blocked_rounds_match_reference(seed, stage_aware, kind):
    """Rounds the blocking or memory rule empties, and near-blocked ones
    that must still place: on 4 and on 32 workers the reference and the
    engine agree decision-for-decision and score for score, in stage mode
    and in fig-7 task mode."""

    def run(make, machines):
        workers, stages = _blocked_round(seed, kind, machines)
        out = make().place(stages, workers, 25.0, EarliestJobFirst(weight=0.1))
        return [(a.jm.job.job_id, a.task.task_id, a.worker, a.score) for a in out]

    for machines in (4, WIDE):
        expected = run(
            lambda: ReferenceUrsaPlacement(stage_aware=stage_aware), machines)
        assert (expected == []) == (kind in BLOCKED)
        assert run(lambda: UrsaPlacement(stage_aware=stage_aware), machines) == expected


@pytest.mark.parametrize("kind", BOUNDED)
def test_blocked_round_returns_before_scoring(kind, monkeypatch):
    """The exact bound catches every blocked kind, in stage and in task
    mode: no task is scored."""

    def unreachable(*args):
        raise AssertionError("a bounded round scored a task")

    monkeypatch.setattr(UrsaPlacement, "_stage_score_tentative", unreachable)
    monkeypatch.setattr(UrsaPlacement, "_choose", unreachable)
    for stage_aware in (True, False):
        workers, stages = _blocked_round(0, kind)
        placement = UrsaPlacement(stage_aware=stage_aware)
        assert placement.place(stages, workers, 25.0, EarliestJobFirst()) == []
        assert placement._profiles == {}


@pytest.mark.parametrize("wide", [False, True])
def test_task_mode_scans_once_per_repeated_profile(wide, monkeypatch):
    """Fig-7 task mode reads a repeated profile's cached row: on setting-1,
    where every profile repeats, no task costs a worker scan and each
    distinct profile builds at most one row per round — and the run still
    matches the frozen reference result for result."""
    sc = replace(TINY, cluster=spread(TINY.cluster)) if wide else TINY
    config = UrsaConfig(stage_aware=False)

    def run(system_cls):
        system = system_cls(Cluster(sc.cluster), config)
        jobs = synthetic_setting1(params_for(TINY), n_jobs=2)
        submit_workload(system, jobs, seed=0)
        system.run()
        assert system.all_done
        return pickle.dumps(compute_metrics(system))

    expected = run(ReferenceUrsaSystem)
    rounds: list[Counter] = []
    place, row = UrsaPlacement.place, _VectorState.row

    def counted_place(self, *args):
        rounds.append(Counter())
        return place(self, *args)

    def counted_row(self, usage, mem):
        rounds[-1][usage, mem] += 1
        return row(self, usage, mem)

    def unreachable(*args):
        raise AssertionError("a repeated profile was scanned")

    monkeypatch.setattr(UrsaPlacement, "place", counted_place)
    monkeypatch.setattr(_VectorState, "row", counted_row)
    monkeypatch.setattr(_VectorState, "best", unreachable)
    assert run(UrsaSystem) == expected
    assert any(rounds)
    assert max(n for r in rounds for n in r.values()) == 1


def test_stage_score_skips_tasks_of_an_infeasible_profile(monkeypatch):
    """Within one stage score headroom only shrinks, so once a repeated
    profile fits no worker its later tasks are not scored at all: on two
    setting-1 jobs on the bench cluster, where a stage is far wider than
    the free slots, placement costs at most two ``_choose`` calls per
    placed task (12.7 before the cut) and every metric is unchanged."""
    sc = SCALES["bench"]
    calls = [0]
    placed = [0]
    choose, place = UrsaPlacement._choose, UrsaPlacement.place

    def counted_choose(item, state, rows):
        calls[0] += 1
        return choose(item, state, rows)

    def counted_place(self, *args):
        out = place(self, *args)
        placed[0] += len(out)
        return out

    def run(system_cls):
        system = system_cls(Cluster(sc.cluster), UrsaConfig())
        submit_workload(system, synthetic_setting1(params_for(sc), n_jobs=2), seed=7)
        system.run()
        assert system.all_done
        return pickle.dumps(compute_metrics(system))

    expected = run(ReferenceUrsaSystem)
    monkeypatch.setattr(UrsaPlacement, "_choose", staticmethod(counted_choose))
    monkeypatch.setattr(UrsaPlacement, "place", counted_place)
    assert run(UrsaSystem) == expected
    assert placed[0] == 2560
    assert calls[0] <= 2 * placed[0]
