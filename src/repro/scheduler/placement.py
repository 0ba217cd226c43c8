"""Task placement — Algorithm 1 (§4.2.2) and its ablation variants.

Key quantities, named as in the paper:

* ``APT_r(w)`` — approximate time for worker ``w`` to drain its assigned
  type-r work (computed by the worker agents from measured processing
  rates).
* ``EPT`` — expected processing time per scheduling round; slightly larger
  than the scheduling interval to absorb communication delay.
* ``D_r(w) = max(0, (EPT − APT_r(w)) / EPT)`` — normalized headroom;
  ``D_mem(w)`` is the free-memory fraction.
* ``Inc_r(t, w)`` — the load increase on ``w`` if task ``t`` lands there:
  estimated type-r usage ÷ w's type-r processing rate ÷ EPT (memory: the
  estimated memory footprint ÷ capacity).
* ``F(t, w) = Σ_r D_r(w) · Inc_r(t, w)`` with two guard rules: never place
  where some ``D_r = 0`` while ``Inc_r > 0`` (execution would block on r),
  and cap ``Inc_r`` at ``D_r`` (availability bounds the contribution).

Whole stages are scored and placed together — a large :data:`STAGE_BONUS`
makes fully-placeable stages win over partial plans, which avoids
manufacturing stragglers that would block dependent stages (§5.2 ablates
this).

Implementation notes (the placement loop runs at every scheduling interval
and dominates scheduler wall time):

* Worker state is columnar (:class:`_VectorState`): per-worker ``D_r(w)``,
  free memory, ``1/(rate_r·EPT)`` and liveness in parallel python lists.
  The columns persist across rounds: :class:`UrsaPlacement` derives every
  row once per worker list and attaches the state's *dirty set* to each
  worker (``Worker.watch``).  Every change to an input of a row — assigned
  work, a CPU slot taken or freed, a completion's rate sample, a crash or
  rejoin, a memory reservation or release on the worker's machine — adds
  the worker's index through one O(1) seam (``Worker.mark_dirty`` and its
  machine's memory calls), and each round re-derives only the dirty rows,
  with the same expressions in the same order as a fresh build, so every
  column float is bit-identical to one.  A worker the round commits a
  task to is marked dirty too: ``commit`` shrinks its headroom by an
  in-round estimate, which is not what the worker derives once the task
  is dispatched.
* A round returns ``[]`` before touching the columns when no stage has a
  ready task, and after syncing them when an exact bound proves that every
  ``F(t, w)`` is ``-inf``: some fluid resource r has ``D_r = 0`` on every
  alive worker while every ready task uses r (the blocking rule), or the
  smallest ready memory estimate exceeds every alive worker's free memory
  plus the ``1e-9`` fit slack (the memory rule).  Those rounds would place
  nothing anyway, so the assignments are unchanged.
* Stage selection uses lazy re-evaluation on a max-heap.  Within one
  placement round every commit can only *shrink* worker headroom, so stage
  scores are monotonically non-increasing; popping the stale maximum and
  re-scoring it fresh selects exactly the stage Algorithm 1's quadratic
  loop would, at a fraction of the cost.
* A heap entry whose generation still matches the commit counter was scored
  against the current state, so its stored plan is committed without a
  redundant rescore (every round's first selection hits this).
* Tentative stage scoring undoes its commits with a *touched set*: only
  the workers a tentative plan actually touched are snapshotted (on first
  touch) and restored.
* A task's profile ``((cpu, net, disk), mem)`` is resolved once per task
  (``Task.sched_profile``): the estimates it derives from are frozen when
  the task becomes ready, and the same task is re-scored many times across
  rounds while it waits for headroom.
* ``F`` for one task against every worker is one *score row* (not to be
  confused with a worker's row of the columns), computed by a python loop
  over the columns.
* ``F(t, w)`` depends on the task only through its ``(usage, est_mem)``
  profile.  Both modes choose a task's worker with one method,
  :meth:`UrsaPlacement._choose`.  A profile that repeats within a stage
  gets one cached row — per stage score in stage mode, per round in task
  mode; a commit can change only the chosen worker's entry, so it
  refreshes one entry per cached row instead of rescoring.  A profile
  that occurs once is scored by one pass over the workers and never
  cached; its scan tracks the maximum without building the row.  Stages
  list same-profile tasks consecutively, so "repeats" means "equals a
  neighbour".  Batch stages are equal-size partitions (every task shares
  a profile on the benchmark's batch workloads); service jobs draw
  per-task sizes (no task shares one).

Every score is float-for-float identical to the straightforward
implementation the tests keep in ``tests/scheduler/reference.py``: term
order (cpu, net, disk, mem), clamps and the ``+ 1e-9`` memory-fit slack
follow it op-for-op, and ties resolve to the first maximum as the
reference's strict ``>`` scan does.  ``tests/scheduler`` pins that
equivalence per round and ``tests/perf`` end-to-end.
"""

from __future__ import annotations

import heapq
import operator
from itertools import compress
from typing import TYPE_CHECKING, Sequence

from ..dataflow.graph import ResourceType
from ..dataflow.monotask import Stage, Task
from .ordering import SchedulingPolicy
from .worker import Worker

if TYPE_CHECKING:  # pragma: no cover
    from ..execution.jobmanager import JobManager

__all__ = ["Assignment", "PlacementPolicy", "ReadyStage", "UrsaPlacement"]

_FLUID = (ResourceType.CPU, ResourceType.NETWORK, ResourceType.DISK)
_NEG_INF = float("-inf")
#: added to a stage's score when every ready task of it can be placed, so
#: whole stages win over partial plans (stage-aware mode, §4.2.2)
STAGE_BONUS = 1e6
#: batch placement period, seconds (§4.2.2)
SCHEDULING_INTERVAL = 0.25
#: EPT = SCHEDULING_INTERVAL × EPT_FACTOR: "slightly larger than the
#: scheduling interval" to absorb communication delay (§4.2.2)
EPT_FACTOR = 1.2
#: expected processing time per scheduling round, seconds
EPT = SCHEDULING_INTERVAL * EPT_FACTOR


class Assignment:
    """One placement decision: task → worker.

    ``score`` carries the winning pure ``F(t, w)`` (no policy bonus) for
    lifecycle tracing; policies that don't score (e.g. Capacity) leave the
    default."""

    __slots__ = ("jm", "task", "worker", "score")

    def __init__(self, jm: "JobManager", task: Task, worker: int, score: float = 0.0):
        self.jm = jm
        self.task = task
        self.worker = worker
        self.score = score


class ReadyStage:
    """A stage with currently-ready tasks, as seen by the placement round."""

    __slots__ = ("jm", "stage", "tasks")

    def __init__(self, jm: "JobManager", stage: Stage, tasks: list[Task]):
        self.jm = jm
        self.stage = stage
        self.tasks = tasks


class PlacementPolicy:
    """Interface implemented by Algorithm 1, Tetris, and Capacity."""

    def place(
        self,
        ready: list[ReadyStage],
        workers: Sequence[Worker],
        now: float,
        job_policy: SchedulingPolicy,
    ) -> list[Assignment]:
        raise NotImplementedError


class _VectorState:
    """Struct-of-arrays worker headroom state, kept across placement rounds.

    Columns are python lists indexed by worker: row ``i`` is the worker
    whose ``index`` is ``i``, its position in the system's worker list.
    :meth:`refresh` derives one worker's row from the worker; the
    constructor derives every row, and
    :meth:`sync` re-derives only the rows in :attr:`dirty` — the workers
    whose inputs changed since the previous round, as reported through
    :meth:`Worker.mark_dirty <repro.scheduler.worker.Worker.mark_dirty>`,
    plus every worker a round committed to.  :meth:`row` and :meth:`best`
    score one task profile against every worker.
    """

    __slots__ = (
        "n", "alive", "d0", "d1", "d2", "mem_avail", "mem_cap",
        "inv0", "inv1", "inv2", "dirty",
    )

    def __init__(self, workers):
        n = self.n = len(workers)
        self.alive = [False] * n
        self.d0 = [0.0] * n
        self.d1 = [0.0] * n
        self.d2 = [0.0] * n
        self.mem_avail = [0.0] * n
        self.mem_cap = [0.0] * n
        self.inv0 = [0.0] * n
        self.inv1 = [0.0] * n
        self.inv2 = [0.0] * n
        #: indices of rows whose worker changed since they were derived
        self.dirty: set[int] = set()
        for i, w in enumerate(workers):
            self.refresh(i, w)

    def refresh(self, i: int, w) -> None:
        """Derive row ``i`` from worker ``w``."""
        r_cpu, r_net, r_disk = _FLUID
        ept = EPT
        # the paper's D_r(w) = max(0, (EPT − APT_r(w)) / EPT), where
        # APT_r(w) comes from the worker's rate monitors
        self.d0[i] = max(0.0, (ept - w.apt(r_cpu)) / ept)
        self.d1[i] = max(0.0, (ept - w.apt(r_net)) / ept)
        self.d2[i] = max(0.0, (ept - w.apt(r_disk)) / ept)
        # 1 / (rate_r(w) · EPT): multiplying by estimated usage (MB)
        # gives Inc_r(t, w) without a division on the scoring hot path
        rates = w.processing_rates()
        self.inv0[i] = 1.0 / (max(rates[0], 1e-9) * ept)
        self.inv1[i] = 1.0 / (max(rates[1], 1e-9) * ept)
        self.inv2[i] = 1.0 / (max(rates[2], 1e-9) * ept)
        self.mem_avail[i] = w.available_memory_mb
        self.mem_cap[i] = w.memory_capacity_mb
        # dead workers (fault layer) take no placements
        self.alive[i] = w.alive

    def sync(self, workers) -> None:
        """Re-derive every dirty row from ``workers``."""
        dirty = self.dirty
        refresh = self.refresh
        for i in dirty:
            refresh(i, workers[i])
        dirty.clear()

    # ------------------------------------------------------------------
    def row(self, usage, mem: float) -> list:
        """F(t, w) for one task profile against every worker, as a dense
        python list (fast C-level ``max``/``.index`` for the greedy loop)
        with ``-inf`` at infeasible workers."""
        return [self.score_one(i, usage, mem) for i in range(self.n)]

    def best(self, usage, mem: float) -> tuple[float, int]:
        """``(F, worker)`` of the row's first maximum, ``(-inf, -1)`` when
        no worker is feasible.

        One scan of the columns for a profile whose row is used once, so
        no row is built; the first strict maximum wins, as in a row."""
        u_cpu, u_net, u_disk = usage
        alive = self.alive
        d0, d1, d2 = self.d0, self.d1, self.d2
        mem_avail, mem_cap = self.mem_avail, self.mem_cap
        inv0, inv1, inv2 = self.inv0, self.inv1, self.inv2
        best_f = _NEG_INF
        best_i = -1
        for i in range(self.n):
            avail = mem_avail[i]
            if not alive[i] or mem > avail + 1e-9:
                continue
            f = 0.0
            if u_cpu > 0.0:
                dr = d0[i]
                if dr <= 0.0:
                    continue  # blocking rule: zero headroom, work needed
                inc = u_cpu * inv0[i]
                if inc > dr:
                    inc = dr  # availability caps the contribution
                f += dr * inc
            if u_net > 0.0:
                dr = d1[i]
                if dr <= 0.0:
                    continue
                inc = u_net * inv1[i]
                if inc > dr:
                    inc = dr
                f += dr * inc
            if u_disk > 0.0:
                dr = d2[i]
                if dr <= 0.0:
                    continue
                inc = u_disk * inv2[i]
                if inc > dr:
                    inc = dr
                f += dr * inc
            if mem > 0.0:
                cap = mem_cap[i]
                d_mem = avail / cap
                if d_mem <= 0.0:
                    continue
                inc_mem = mem / cap
                f += d_mem * (inc_mem if inc_mem <= d_mem else d_mem)
            if f > best_f:
                best_f, best_i = f, i
        return best_f, best_i

    def score_one(self, i: int, usage, mem: float) -> float:
        """F(t, w) for one (profile, worker) pair; ``-inf`` if infeasible.

        Refreshes a committed worker's entry in cached rows and scores
        locality-pinned tasks — same op order as the rows.
        """
        if not self.alive[i]:
            return _NEG_INF
        avail = self.mem_avail[i]
        if mem > avail + 1e-9:
            return _NEG_INF
        u_cpu, u_net, u_disk = usage
        f = 0.0
        if u_cpu > 0.0:
            dr = self.d0[i]
            if dr <= 0.0:
                return _NEG_INF
            inc = u_cpu * self.inv0[i]
            if inc > dr:
                inc = dr
            f += dr * inc
        if u_net > 0.0:
            dr = self.d1[i]
            if dr <= 0.0:
                return _NEG_INF
            inc = u_net * self.inv1[i]
            if inc > dr:
                inc = dr
            f += dr * inc
        if u_disk > 0.0:
            dr = self.d2[i]
            if dr <= 0.0:
                return _NEG_INF
            inc = u_disk * self.inv2[i]
            if inc > dr:
                inc = dr
            f += dr * inc
        if mem > 0.0:
            cap = self.mem_cap[i]
            d_mem = avail / cap
            if d_mem <= 0.0:
                return _NEG_INF
            inc_mem = mem / cap
            f += d_mem * (inc_mem if inc_mem <= d_mem else d_mem)
        return f

    # ------------------------------------------------------------------
    def commit(self, i: int, usage, mem: float, touched=None) -> None:
        """Shrink worker ``i``'s headroom for one granted task.

        A tentative commit (``touched`` given) is undone by :meth:`restore`;
        a permanent one marks the row dirty, because the shrunken in-round
        estimate is not what the worker derives once the task is dispatched
        (the next round re-derives it)."""
        d0, d1, d2, mem_avail = self.d0, self.d1, self.d2, self.mem_avail
        if touched is None:
            self.dirty.add(i)
        elif i not in touched:
            # touched-set undo: snapshot a worker once, on first touch
            touched[i] = (d0[i], d1[i], d2[i], mem_avail[i])
        u_cpu, u_net, u_disk = usage
        if u_cpu > 0.0:
            nd = d0[i] - u_cpu * self.inv0[i]
            d0[i] = nd if nd > 0.0 else 0.0
        if u_net > 0.0:
            nd = d1[i] - u_net * self.inv1[i]
            d1[i] = nd if nd > 0.0 else 0.0
        if u_disk > 0.0:
            nd = d2[i] - u_disk * self.inv2[i]
            d2[i] = nd if nd > 0.0 else 0.0
        mem_avail[i] -= mem

    def restore(self, i: int, snap: tuple) -> None:
        """Undo every commit against worker ``i`` (tentative scoring)."""
        self.d0[i], self.d1[i], self.d2[i], self.mem_avail[i] = snap


def _argmax(row: list) -> tuple[float, int]:
    """(best F, first worker index holding it); ``(-inf, -1)`` when no
    worker is feasible."""
    best = max(row, default=_NEG_INF)
    return best, (row.index(best) if best != _NEG_INF else -1)


def _refresh_rows(rows: dict, state: _VectorState, widx: int) -> None:
    """Re-score worker ``widx``'s entry in every cached row after a commit
    to it.

    Headroom only shrinks within a round: an infeasible entry stays
    infeasible and a refreshed entry only drops, so a row's cached
    (best, argmax) stays valid unless ``widx`` *was* the argmax — then the
    best is marked stale and recomputed on the next read.
    """
    score_one = state.score_one
    for (usage, mem), entry in rows.items():
        row = entry[0]
        if row[widx] != _NEG_INF:
            row[widx] = score_one(widx, usage, mem)
            if entry[2] == widx:
                entry[1] = None


class UrsaPlacement(PlacementPolicy):
    """Algorithm 1 with stage-awareness and job-ordering bonuses."""

    def __init__(self, stage_aware: bool = True, ignore_network: bool = False):
        self.stage_aware = stage_aware
        self.ignore_network = ignore_network
        # the worker columns and the list they were derived from; kept
        # across rounds (see _synced_state)
        self._state: _VectorState | None = None
        self._workers: Sequence[Worker] | None = None
        # per-round scratch state (valid only inside one place() call)
        self._touched: dict[int, tuple] = {}
        self._profiles: dict = {}

    # ------------------------------------------------------------------
    def place(self, ready, workers, now, job_policy) -> list[Assignment]:
        try:
            if not any(rs.tasks for rs in ready):
                return []
            state = self._synced_state(workers)
            if self._cannot_place(ready, state):
                return []
            if self.stage_aware:
                return self._place_by_stage(ready, state, now, job_policy)
            return self._place_by_task(ready, state, now, job_policy)
        finally:
            self._profiles = {}

    def _synced_state(self, workers) -> _VectorState:
        """The worker columns, current for this round.

        Built once per worker list, whose workers then report every change
        to a row input into the state's dirty set; later rounds re-derive
        only those rows.  A different list, or one whose workers report to
        another engine's state, gets a fresh build."""
        state = self._state
        if (
            state is None
            or workers is not self._workers
            or state.n != len(workers)
            or (state.n and workers[0].dirty is not state.dirty)
        ):
            state = self._state = _VectorState(workers)
            self._workers = workers
            for w in workers:
                w.watch(state.dirty)
        else:
            state.sync(workers)
        return state

    def _cannot_place(self, ready, state: _VectorState) -> bool:
        """Whether every ``F(t, w)`` of the round is provably ``-inf``.

        Two exact sufficient conditions, both checked on alive workers
        only (dead ones score ``-inf`` anyway):

        * some fluid resource r has ``D_r = 0`` on every alive worker and
          every ready task's profile uses r — the blocking rule;
        * every ready task's memory estimate exceeds every alive worker's
          free memory plus the ``1e-9`` fit slack — the memory rule (float
          addition is monotonic, so the largest free memory decides).

        Each scan stops at its first counterexample, so a round that can
        place pays about one look at the workers per resource and at one
        task."""
        alive = state.alive
        profile = self._profile

        def profiles():
            return (t.sched_profile or profile(t) for rs in ready for t in rs.tasks)

        for r, d in enumerate((state.d0, state.d1, state.d2)):
            # D_r >= 0, so a truthy entry is an alive worker with headroom
            if not any(compress(d, alive)) and all(u[r] > 0.0 for u, _m in profiles()):
                return True
        fit = max(compress(state.mem_avail, alive), default=_NEG_INF) + 1e-9
        return all(mem > fit for _u, mem in profiles())

    def _profile(self, task: Task) -> tuple:
        """``((cpu, net, disk) usage, mem)``: all ``F(t, w)`` reads of a task.

        The est_* fields are frozen when the task becomes ready (before it
        is ever scored), so the profile is resolved once per task, not per
        round."""
        p = task.sched_profile
        if p is None:
            p = (
                (
                    task.est_cpu_mb,
                    0.0 if self.ignore_network else task.est_net_mb,
                    task.est_disk_mb,
                ),
                task.est_mem_mb,
            )
            # equal profiles resolved in one round share one object, so
            # comparing neighbours short-circuits on identity
            p = task.sched_profile = self._profiles.setdefault(p, p)
        return p

    def _scored(self, tasks: list[Task]) -> list:
        """``(task, profile, repeated)`` per ready task of one stage;
        ``repeated`` says the profile equals a neighbouring task's, which
        is how a repeat shows: stages list same-profile tasks
        consecutively."""
        profile = self._profile
        profiles = [t.sched_profile or profile(t) for t in tasks]
        same_next = list(map(operator.eq, profiles, profiles[1:])) + [False]
        repeated = [a or b for a, b in zip([False] + same_next, same_next)]
        return list(zip(tasks, profiles, repeated))

    # ------------------------------------------------------------------
    def _place_by_stage(self, ready, state, now, job_policy) -> list[Assignment]:
        assignments: list[Assignment] = []
        pending = [rs for rs in ready if rs.tasks]
        # Lazy-greedy max-heap of (-score, tiebreak, stage, scored, plan,
        # gen).  `gen` counts permanent commits: an entry whose gen still
        # matches was scored against the *current* state, so its stored
        # score and plan are exactly what a fresh rescore would produce and
        # can be committed without re-scoring.
        gen = 0
        heap: list = []
        for seq, rs in enumerate(pending):
            # resolved once per round: the same stage is re-scored many
            # times as the heap re-evaluates
            scored = self._scored(rs.tasks)
            score, plan = self._stage_score_tentative(scored, state)
            if not plan:
                continue
            score += job_policy.placement_bonus(rs.jm.job, now)
            heapq.heappush(heap, (-score, seq, rs, scored, plan, gen))
        seq = len(pending)
        while heap:
            neg_stale, _sq, rs, scored, plan, g = heapq.heappop(heap)
            if not rs.tasks:
                continue
            if g != gen:
                score, plan = self._stage_score_tentative(scored, state)
                if not plan:
                    continue  # headroom only shrinks within a round: drop
                score += job_policy.placement_bonus(rs.jm.job, now)
                if heap and -heap[0][0] > score + 1e-12:
                    # stale top: push back with the fresh score and retry
                    seq += 1
                    heapq.heappush(heap, (-score, seq, rs, scored, plan, gen))
                    continue
            # else: no commit since this entry was scored — the stored plan
            # is fresh, and the heap property guarantees every remaining
            # stale score (an upper bound on its fresh score) is <= ours
            placed_ids = set()
            for task, usage, mem, widx, f in plan:
                state.commit(widx, usage, mem)
                assignments.append(Assignment(rs.jm, task, widx, f))
                placed_ids.add(task.task_id)
            gen += 1
            rs.tasks = [t for t in rs.tasks if t.task_id not in placed_ids]
            if rs.tasks:
                # the leftover was unplaceable with shrunken headroom; it
                # stays ready for the next scheduling interval
                continue
        return assignments

    def _place_by_task(self, ready, state, now, job_policy) -> list[Assignment]:
        """Fig-7 ablation: greedily place single highest-score tasks.

        The reference loop (``tests/scheduler/reference.py``) re-scores the
        whole pool for every placement (O(P²·W)); scores only shrink as
        headroom is committed, so the same lazy max-heap trick applies.
        Ties are resolved exactly as the reference's first-strict-maximum
        scan does — by original pool position — so entries keep their
        enumeration index on re-push and the acceptance test compares full
        (score, seq) keys.  Each evaluation is one :meth:`_choose`, against
        one set of cached rows for the whole round, refreshed after every
        commit.
        """
        assignments: list[Assignment] = []
        rows: dict = {}  # repeated profile -> [row, best_f, argmax]
        choose = self._choose
        heap: list = []
        pool = [(rs.jm, item) for rs in ready for item in self._scored(rs.tasks)]
        for seq, (jm, item) in enumerate(pool):
            f, _widx = choose(item, state, rows)
            if f == _NEG_INF:
                continue
            score = f + job_policy.placement_bonus(jm.job, now)
            heap.append((-score, seq, jm, item))
        heapq.heapify(heap)
        while heap:
            neg_stale, seq, jm, item = heapq.heappop(heap)
            f, widx = choose(item, state, rows)
            if f == _NEG_INF:
                continue  # headroom only shrinks: never feasible again
            score = f + job_policy.placement_bonus(jm.job, now)
            if heap and (heap[0][0], heap[0][1]) < (-score, seq):
                # a stale competitor might still beat us (or win the
                # pool-order tie): re-evaluate it first
                heapq.heappush(heap, (-score, seq, jm, item))
                continue
            task, (usage, mem), _repeated = item
            state.commit(widx, usage, mem)
            if rows:
                _refresh_rows(rows, state, widx)
            assignments.append(Assignment(jm, task, widx, f))
        return assignments

    # ------------------------------------------------------------------
    # Algorithm 1's StageScore (tentative commits undone via the touched set)
    # ------------------------------------------------------------------
    def _stage_score_tentative(self, scored, state: _VectorState) -> tuple[float, list]:
        touched = self._touched  # worker index -> (d0, d1, d2, mem) snapshot
        result = self._stage_score(scored, state, touched)
        for i, snap in touched.items():
            state.restore(i, snap)
        touched.clear()
        return result

    def _stage_score(self, scored, state: _VectorState, touched: dict):
        """Score one stage; returns (score, plan of (task, usage, mem, widx, f)).

        Each task goes to its best worker (:meth:`_choose`) and is committed
        before the next task is scored.  Headroom only shrinks within one
        score, so once an unpinned profile fits no worker, every later task
        with that profile is skipped unscored: it would score ``-inf`` too.
        """
        plan: list = []
        plan_append = plan.append
        score = 0.0
        bonus = STAGE_BONUS
        rows: dict = {}  # repeated profile -> [row, best_f, argmax]
        infeasible: set = set()  # unpinned profiles no worker can take
        choose, commit = self._choose, state.commit
        for item in scored:
            task, key, _repeated = item
            if infeasible and key in infeasible:
                continue
            best_f, widx = choose(item, state, rows)
            if best_f == _NEG_INF:
                bonus = 0.0
                if task.locality is None:
                    infeasible.add(key)
                continue
            usage, mem = key
            plan_append((task, usage, mem, widx, best_f))
            commit(widx, usage, mem, touched)
            if rows:
                _refresh_rows(rows, state, widx)
            score += best_f
        if not plan:
            return (0.0, [])
        return (score / len(plan) + bonus, plan)

    @staticmethod
    def _choose(item, state: _VectorState, rows: dict) -> tuple[float, int]:
        """``(F, worker)`` of one :meth:`_scored` item's best worker;
        ``F`` is ``-inf`` when no worker is feasible.

        A locality pin leaves one candidate, scored as one pair.  A
        repeated profile reads its ``[row, best, argmax]`` entry in
        ``rows``, built on first use; the caller keeps the rows exact with
        :func:`_refresh_rows` after each commit, so the entry equals what a
        rescan would find.  A one-off profile is one scan, never cached —
        caching it would only add a refresh to every later commit.
        """
        task, key, repeated = item
        usage, mem = key
        loc = task.locality
        if loc is not None:
            return state.score_one(loc, usage, mem), loc
        if not repeated:
            return state.best(usage, mem)
        entry = rows.get(key)
        if entry is None:
            row = state.row(usage, mem)
            entry = rows[key] = [row, *_argmax(row)]
        elif entry[1] is None:  # stale after an argmax refresh
            entry[1], entry[2] = _argmax(entry[0])
        return entry[1], entry[2]
