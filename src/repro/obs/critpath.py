"""The one per-unit fold, span trees and scheduling-aware critical paths.

:func:`fold_rows` reads each of a unit's :mod:`repro.obs.events` rows once
and builds all of the unit's products (:class:`UnitTrace`): the span index
(job → task → monotask, with admission / queue / grant / run phases); the
idle-blame ledger (:meth:`UnitTrace.accrue`: before a row that moves the
clock, every idle worker slot is blamed for the interval the cluster state
held); telemetry's step series (:func:`repro.obs.telemetry.unit_summary`),
each change recorded at the unit's clock (the latest row time of any kind);
and the latency samples (:func:`repro.obs.latency.derive_latency`).  One
``(job, mt)`` → push-time dict matches pushes to grants.  Telemetry-only
rows feed only telemetry and never move the idle-ledger clock, so every
trace product is a function of the trace rows alone.

:func:`critical_path` walks each job's monotask DAG *backward* from the
last-finishing monotask to extract the **scheduling-aware critical path**:
the chain of wait and work segments that actually bounded the job's
completion time.  Wait edges are first-class — queue residency, placement
delay, admission gating and fault recovery all appear as labeled segments.

The walk maintains a backward cursor that starts at the job's finish time
and only ever moves earlier, clamped to ``[submit, finish]``; every emitted
segment spans ``[new_cursor, cursor]``.  Segments therefore tile the JCT
window exactly by construction, which is what lets
:mod:`repro.obs.attribution` fold them into a ledger whose entries sum to
JCT (the telescoping sum is exact up to float associativity, well inside
the 1e-9 relative gate).

Granularity degrades gracefully with trace richness:

* **monotask level** — Ursa-scheduled units (queue/grant events present):
  run segments split into pure service time (``work_mb`` / nominal rate
  from the ``worker_spec`` event) vs. contention excess, queue residency
  per resource, placement delay, admission wait.
* **task level** — executor-model baselines share the JM/JP execution
  layer but never touch Worker queues, so their traces carry task
  lifecycles only; run time collapses into one ``execution`` category.
* **job level** — zero-task jobs and jobs killed by the fault layer get a
  single covering segment.

Segment labels are the ledger categories listed in
:data:`repro.obs.attribution.CATEGORIES`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..series import StepSeries
from . import events as ev
from .timeseries import StreamingHistogram

__all__ = [
    "IDLE_CAUSES", "RTYPES", "COUNTER_KEYS", "JCT_BOUNDS", "MtSpan", "TaskSpan",
    "JobSpan", "UnitTrace", "fold_rows", "parse_events", "critical_path",
]

#: idle-second blame classes, in priority order (first match wins)
IDLE_CAUSES = ("fault_down", "blocked_policy", "admission_gated", "no_work")

RTYPES = ("cpu", "network", "disk")

#: telemetry's counter keys, pre-seeded so every summary has the same shape
COUNTER_KEYS = (
    "grants", "bypass_grants", "releases", "aborts",
    "queue_pushes", "queue_pops", "queue_evicted",
    "jobs_submitted", "jobs_admitted", "jobs_started",
    "jobs_completed", "jobs_failed", "jobs_failed_unadmitted",
    "sched_ticks", "tasks_assigned",
    "retries", "monotasks_lost", "worker_down", "worker_up",
    "wasted_work_mb",
    "jobs_shed", "autoscale_up", "autoscale_down",
)

#: histogram boundaries (seconds) for job-scale durations (JCT, admission
#: wait) — latencies here are seconds-to-minutes, not milliseconds
JCT_BOUNDS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0)

#: row kind -> the counter each row of it bumps by one
_COUNTED = {
    ev.JOB_SUBMIT: "jobs_submitted", ev.JOB_ADMIT: "jobs_admitted",
    ev.JOB_STARTED: "jobs_started", ev.JOB_COMPLETED: "jobs_completed",
    ev.JOB_FAILED: "jobs_failed", ev.WORKER_DOWN: "worker_down",
    ev.WORKER_UP: "worker_up", ev.RETRY: "retries", ev.JOB_SHED: "jobs_shed",
}


@dataclass(slots=True, eq=False)
class MtSpan:
    """Lifecycle timestamps and DAG links of one monotask (last attempt)."""

    mt: int
    task: Optional[int] = None
    rtype: Optional[str] = None
    worker: Optional[int] = None
    #: the push its last grant came from (None: never queued)
    push_t: Optional[float] = None
    start_t: Optional[float] = None
    finish_t: Optional[float] = None
    work_mb: float = 0.0
    input_mb: float = 0.0
    #: parent monotask ids (shared with the recorded row, never copied)
    parents: Sequence[int] = ()


@dataclass(slots=True, eq=False)
class TaskSpan:
    """Lifecycle timestamps of one task (last attempt)."""

    task: int
    ready_t: Optional[float] = None
    placed_t: Optional[float] = None
    finish_t: Optional[float] = None
    mts: list[int] = field(default_factory=list)


@dataclass(slots=True, eq=False)
class JobSpan:
    """One job's span tree: job-level phases plus task and monotask spans."""

    job: int
    name: Optional[str] = None
    submit_t: Optional[float] = None
    admit_t: Optional[float] = None
    jm_start_t: Optional[float] = None
    finish_t: Optional[float] = None
    jct: Optional[float] = None
    failed: bool = False
    tasks: dict[int, TaskSpan] = field(default_factory=dict)
    mts: dict[int, MtSpan] = field(default_factory=dict)
    retry_ts: list[float] = field(default_factory=list)

    def task_span(self, tid: int) -> TaskSpan:
        span = self.tasks.get(tid)
        if span is None:
            span = self.tasks[tid] = TaskSpan(tid)
        return span

    def mt_span(self, mid: int) -> MtSpan:
        span = self.mts.get(mid)
        if span is None:
            span = self.mts[mid] = MtSpan(mid)
        return span


class UnitTrace:
    """One simulation unit's fold: everything its rows say, indexed (spans,
    the idle-blame ledger, telemetry's series, latency samples)."""

    def __init__(self, unit: str) -> None:
        self.unit = unit
        self.jobs: dict[int, JobSpan] = {}
        #: worker -> {"limits": {rtype: slots}, "rates": {rtype: MB/s}}
        self.workers: dict[int, dict] = {}
        #: worker -> [(down_t, up_t_or_None), ...]
        self.down_windows: dict[int, list[list[Optional[float]]]] = {}
        #: the latest trace row time, up to which the idle ledger has accrued
        self.end_t = 0.0
        #: the latest row time of any kind: telemetry's series change here
        self.clock = 0.0
        #: trace rows folded (telemetry-only rows left out)
        self.n_events = 0
        #: (job, mt) -> the time of its push awaiting a grant
        self.pushed: dict[tuple, float] = {}
        # the cluster state the idle ledger classifies by
        self.running: dict[tuple[int, str], int] = {}
        #: rtype -> the workers whose queue of it holds work
        self.queued: dict[str, set[int]] = {r: set() for r in RTYPES}
        self.down: set[int] = set()
        self.pending_tasks = 0          # ready but not yet placed
        self.waiting_jobs: set[int] = set()  # submitted, not yet admitted
        #: worker -> rtype -> cause -> idle slot-seconds, and the per-rtype sums
        self.idle_per_worker: dict[int, dict] = {}
        self.idle_totals = {r: dict.fromkeys(IDLE_CAUSES, 0.0) for r in RTYPES}
        #: (worker, (worker, rtype), limit, worker cells, total cells, rtype)
        #: per slot, in ``workers`` order
        self.slots: list[tuple] = []
        #: latency samples in row order: rtype -> every grant's allocation
        #: latency, rtype -> queued grants' waits, and placement and
        #: admission waits
        self.alloc = {r: array("d") for r in RTYPES}
        self.queue_wait = {r: array("d") for r in RTYPES}
        self.placement = array("d")
        self.admission_wait = array("d")
        # telemetry's counters and series
        self.counters: dict[str, float] = dict.fromkeys(COUNTER_KEYS, 0)
        self.counters["wasted_work_mb"] = 0.0
        #: (worker, rtype) -> active monotasks
        self.busy: dict[tuple[int, str], StepSeries] = {}
        #: (worker, rtype) -> (queue depth, queued MB)
        self.queue: dict[tuple[int, str], tuple[StepSeries, StepSeries]] = {}
        self.admission_q = StepSeries(0)
        self.running_jobs = StepSeries(0)
        self.jct_hist = StreamingHistogram(JCT_BOUNDS)
        self.repair_times: list[float] = []
        self.recovery_times: list[float] = []

    def job_span(self, jid: int) -> JobSpan:
        span = self.jobs.get(jid)
        if span is None:
            span = self.jobs[jid] = JobSpan(jid)
        return span

    def busy_series(self, key: tuple) -> StepSeries:
        series = self.busy.get(key)
        if series is None:
            series = self.busy[key] = StepSeries()
        return series

    def queue_series(self, key: tuple) -> tuple[StepSeries, StepSeries]:
        q = self.queue.get(key)
        if q is None:
            q = self.queue[key] = (StepSeries(0), StepSeries())
        return q

    def capacity(self, worker: int, rtype: str) -> int:
        """The slot limit the worker's ``worker_spec`` row set (0: none)."""
        spec = self.workers.get(worker)
        return spec["limits"][rtype] if spec is not None else 0

    def nominal_rate(self, worker: Optional[int], rtype: Optional[str]) -> float:
        spec = self.workers.get(worker)
        if spec is None or rtype is None:
            return 0.0
        return spec["rates"].get(rtype, 0.0)

    def add_worker(self, row: tuple) -> None:
        """A ``worker_spec`` row: the worker's slots accrue idle time from
        here on (a repeated spec replaces the limits in place)."""
        _, _, worker, cores, disks, net, core_rate, net_mbps, disk_mbps = row[:9]
        renewed = worker in self.workers
        self.workers[worker] = {
            "limits": {"cpu": cores, "network": net, "disk": disks},
            "rates": {"cpu": core_rate, "network": net_mbps, "disk": disk_mbps},
        }
        if renewed:  # new limits for slots already in place: rebuild them all
            self.slots = []
        for w in self.workers if renewed else (worker,):
            limits = self.workers[w]["limits"]
            cells = self.idle_per_worker.setdefault(
                w, {r: dict.fromkeys(IDLE_CAUSES, 0.0) for r in RTYPES})
            self.slots += [(w, (w, r), limits[r], cells[r], self.idle_totals[r], r)
                           for r in RTYPES]
        for r in RTYPES:
            self.busy_series((worker, r))
            self.queue_series((worker, r))

    def accrue(self, dt: float) -> None:
        """Blame each idle slot for the ``dt`` seconds the current state
        held, slot by slot into its worker's ledger and then the totals."""
        running = self.running
        down = self.down
        queued = self.queued
        blocked = self.pending_tasks > 0
        starved = "admission_gated" if self.waiting_jobs else "no_work"
        for worker, key, limit, cells, totals, rtype in self.slots:
            idle = limit - running.get(key, 0)
            if idle <= 0:
                continue
            if worker in down:
                cause = "fault_down"
            elif blocked or queued[rtype]:
                cause = "blocked_policy"
            else:
                cause = starved
            amount = idle * dt
            cells[cause] += amount
            totals[cause] += amount

    def downtime_overlap(self, t0: float, t1: float) -> list[tuple[float, float]]:
        """Merged sub-intervals of [t0, t1] during which any worker was down."""
        spans = []
        for windows in self.down_windows.values():
            for down_t, up_t in windows:
                lo = max(t0, down_t)
                hi = min(t1, up_t if up_t is not None else self.end_t)
                if hi > lo:
                    spans.append((lo, hi))
        if not spans:
            return []
        spans.sort()
        merged = [list(spans[0])]
        for lo, hi in spans[1:]:
            if lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return [(lo, hi) for lo, hi in merged]


def parse_events(runs: Iterable[tuple[str, Sequence[tuple]]]) -> dict[str, UnitTrace]:
    """Fold per-unit rows — ``(unit label, rows)`` pairs as
    :meth:`~repro.obs.recorder.EventView.unit_runs` yields them — into
    fresh per-unit folds (runs of one label continue one fold).

    Re-executed attempts (fault layer) overwrite earlier timestamps, so
    every span reflects the *final* attempt; the time the earlier attempts
    consumed surfaces as gaps that the critical-path walk attributes to
    ``fault_recovery``.
    """
    units: dict[str, UnitTrace] = {}
    for label, rows in runs:
        unit = units.get(label)
        if unit is None:
            unit = units[label] = UnitTrace(label)
        fold_rows(unit, rows)
    return units


def fold_rows(unit: UnitTrace, rows: Sequence[tuple]) -> None:
    """Fold the unit's next ``rows`` (recording order) into every product."""
    rname = ev.RTYPE_NAME
    job_span = unit.job_span
    pushed = unit.pushed
    running = unit.running
    queued = unit.queued
    busy = unit.busy
    queue = unit.queue
    alloc = unit.alloc
    telemetry_only = ev.TELEMETRY_ONLY
    end_t = unit.end_t
    clock = unit.clock
    n = grants = bypass = releases = pushes = pops = ticks = assigned = 0
    for row in rows:
        kind = row[0]
        t = row[1]
        if t > clock:
            clock = t
        if kind in telemetry_only:
            _fold_telemetry_only(unit, kind, row, clock)
            continue
        n += 1
        if t > end_t:
            unit.accrue(t - end_t)  # the state before this row held since end_t
            end_t = t
        if kind == ev.MT_START:
            key = (row[2], rname[row[3]])
            mt = job_span(row[4]).mt_span(row[5])
            mt.start_t = t
            mt.worker = row[2]
            t0 = pushed.pop((row[4], row[5]), None)
            grants += 1
            if row[7]:  # the bypass lane never queues and takes no slot
                bypass += 1
                t0 = None
            else:
                running[key] = row[6]
            mt.push_t = t0
            if t0 is None:
                alloc[key[1]].append(0.0)
            else:
                alloc[key[1]].append(t - t0)
                unit.queue_wait[key[1]].append(t - t0)
            (busy.get(key) or unit.busy_series(key)).add(clock, 1.0)
        elif kind == ev.RES_RELEASE:
            key = (row[2], rname[row[3]])
            running[key] = row[5]
            releases += 1
            (busy.get(key) or unit.busy_series(key)).add(clock, -1.0)
        elif kind == ev.QUEUE_PUSH or kind == ev.QUEUE_POP:
            key = (row[2], rname[row[3]])
            if kind == ev.QUEUE_PUSH:
                pushes += 1
                pushed[row[4], row[5]] = t
            else:
                pops += 1
            if row[6]:
                queued[key[1]].add(row[2])
            else:
                queued[key[1]].discard(row[2])
            depth, mb = queue.get(key) or unit.queue_series(key)
            depth.record(clock, row[6])
            mb.record(clock, row[7])
        elif kind == ev.MT_FINISH:
            mt = job_span(row[2]).mt_span(row[4])
            mt.finish_t = t
            mt.task = row[3]
            mt.rtype = rname[row[5]]
        elif kind == ev.TASK_READY:
            span = job_span(row[2]).task_span(row[3])
            span.ready_t = t
            span.placed_t = None  # re-ready after a rewind awaits re-placement
            unit.pending_tasks += 1
        elif kind == ev.TASK_DEPS:
            _, _, jid, tid, mts = row
            job = job_span(jid)
            job.task_span(tid).mts = [m[0] for m in mts]
            for mid, rtype, input_mb, work_mb, parents in mts:
                mt = job.mt_span(mid)
                mt.task = tid
                mt.rtype = rname[rtype]
                mt.input_mb = input_mb
                mt.work_mb = work_mb
                mt.parents = parents
        elif kind == ev.TASK_PLACED:
            span = job_span(row[2]).task_span(row[3])
            if span.placed_t is None and span.ready_t is not None:
                unit.placement.append(t - span.ready_t)
            span.placed_t = t
            if unit.pending_tasks > 0:
                unit.pending_tasks -= 1
        elif kind == ev.TASK_FINISH:
            job_span(row[2]).task_span(row[3]).finish_t = t
        elif kind == ev.SCHED_TICK:
            ticks += 1
            assigned += row[2]
        else:
            _fold_rare(unit, kind, row, clock)
    unit.end_t = end_t
    unit.clock = clock
    unit.n_events += n
    c = unit.counters
    c["grants"] += grants
    c["bypass_grants"] += bypass
    c["releases"] += releases
    c["queue_pushes"] += pushes
    c["queue_pops"] += pops
    c["sched_ticks"] += ticks
    c["tasks_assigned"] += assigned


def _fold_rare(unit: UnitTrace, kind: str, row: tuple, clock: float) -> None:
    """The low-frequency trace rows: workers, job lifecycle, faults."""
    t = row[1]
    c = unit.counters
    if kind in _COUNTED:
        c[_COUNTED[kind]] += 1
    if kind == ev.WORKER_SPEC:
        unit.add_worker(row)
    elif kind == ev.JOB_SUBMIT:
        job = unit.job_span(row[2])
        job.submit_t = t
        job.name = row[3]
        unit.waiting_jobs.add(row[2])
        unit.admission_q.record(clock, row[5])
    elif kind == ev.JOB_ADMIT:
        unit.job_span(row[2]).admit_t = t
        unit.waiting_jobs.discard(row[2])
        unit.admission_wait.append(row[3])
    elif kind == ev.JM_START:
        unit.job_span(row[2]).jm_start_t = t
    elif kind == ev.JOB_FINISH:
        job = unit.job_span(row[2])
        job.finish_t = t
        job.jct = row[3]
        job.failed = bool(row[4])
        if job.submit_t is None and job.jct is not None:
            # baselines bypass the admission controller; recover the
            # submit anchor from the reported JCT
            job.submit_t = t - job.jct
        unit.waiting_jobs.discard(row[2])  # doomed while waiting: no admit
        if row[5]:
            # doomed while waiting: it never held a reservation, so the
            # running-jobs gauge is untouched
            c["jobs_failed"] += 1
            c["jobs_failed_unadmitted"] += 1
    elif kind == ev.MT_LOST:
        c["monotasks_lost"] += 1
        if row[8]:
            # the grant's busy interval ends here; no release follows
            c["aborts"] += 1
            unit.busy_series((row[2], ev.RTYPE_NAME[row[3]])).add(clock, -1.0)
    elif kind == ev.WORKER_DOWN:
        w = row[2]
        unit.down_windows.setdefault(w, []).append([t, None])
        unit.down.add(w)
        for r in RTYPES:
            unit.running[w, r] = 0
            unit.queued[r].discard(w)
    elif kind == ev.WORKER_UP:
        windows = unit.down_windows.get(row[2])
        if windows and windows[-1][1] is None:
            windows[-1][1] = t
            unit.repair_times.append(t - windows[-1][0])
        unit.down.discard(row[2])
        unit.admission_q.record(clock, row[3])
    elif kind == ev.RETRY:
        unit.job_span(row[2]).retry_ts.append(t)


def _fold_telemetry_only(unit: UnitTrace, kind: str, row: tuple, clock: float) -> None:
    """A telemetry-only row: it feeds telemetry and leaves the trace
    products (and the idle-ledger clock) alone."""
    c = unit.counters
    if kind in _COUNTED:
        c[_COUNTED[kind]] += 1
    if kind == ev.QUEUE_EVICT:
        _, _, worker, rtype, qlen, work_mb, keys = row
        c["queue_evicted"] += len(keys)
        depth, mb = unit.queue_series((worker, ev.RTYPE_NAME[rtype]))
        depth.record(clock, qlen)
        mb.record(clock, work_mb)
    elif kind == ev.ADMISSION_QUEUE:
        unit.admission_q.record(clock, row[2])
    elif kind == ev.JOB_STARTED or kind == ev.JOB_FAILED:
        unit.running_jobs.record(clock, row[2])
    elif kind == ev.JOB_COMPLETED:
        unit.jct_hist.observe(row[2])
        unit.running_jobs.record(clock, row[3])
    elif kind == ev.WASTED_WORK:
        c["wasted_work_mb"] += row[2]
    elif kind == ev.FAULT_RECOVERY:
        unit.recovery_times.append(row[2])
    elif kind == ev.AUTOSCALE:
        c["autoscale_up" if row[2] > 0 else "autoscale_down"] += 1


# ----------------------------------------------------------------------
# the backward walk
# ----------------------------------------------------------------------
class _Walk:
    """Backward cursor over ``[submit, finish]`` emitting tiling segments."""

    def __init__(self, unit: UnitTrace, job: JobSpan) -> None:
        self.unit = unit
        self.job = job
        self.submit = job.submit_t if job.submit_t is not None else 0.0
        self.cursor = job.finish_t if job.finish_t is not None else self.submit
        self.segments: list[dict] = []  # built backward, reversed at the end

    def emit(self, t0: float, label: str, **meta) -> None:
        """Emit ``[t0, cursor]`` (clamped so segments tile without overlap)."""
        lo = max(min(t0, self.cursor), self.submit)
        if lo >= self.cursor:
            return
        seg = {"t0": lo, "t1": self.cursor, "label": label}
        seg.update(meta)
        self.segments.append(seg)
        self.cursor = lo

    def emit_gap(self, t0: float, label: str, **meta) -> None:
        """Like :meth:`emit` but reclassifies fault time: the portion of the
        gap overlapping worker downtime — or any gap containing one of the
        job's retry charges — becomes ``fault_recovery``."""
        lo = max(min(t0, self.cursor), self.submit)
        if lo >= self.cursor:
            return
        if any(lo <= rt <= self.cursor for rt in self.job.retry_ts):
            self.emit(lo, "fault_recovery", **meta)
            return
        down = self.unit.downtime_overlap(lo, self.cursor)
        for dlo, dhi in reversed(down):
            self.emit(dhi, label, **meta)
            self.emit(dlo, "fault_recovery", **meta)
        self.emit(lo, label, **meta)

    def finish(self) -> list[dict]:
        self.emit(self.submit, "other")
        self.segments.reverse()
        return self.segments


def _last_finisher(spans: Iterable):
    """Latest-finishing span; ties break to the smallest id (deterministic)."""
    return min(
        (s for s in spans if s.finish_t is not None),
        key=lambda s: (-s.finish_t, s.mt if isinstance(s, MtSpan) else s.task),
        default=None,
    )


def critical_path(unit: UnitTrace, job: JobSpan) -> list[dict]:
    """The job's scheduling-aware critical path as contiguous segments.

    Returns ``[{"t0", "t1", "label", ...}, ...]`` tiling
    ``[submit_t, finish_t]`` in time order; monotask-level segments carry
    ``mt``/``task``/``worker``, task-level ones carry ``task``.
    """
    if job.finish_t is None:
        return []
    walk = _Walk(unit, job)
    if job.failed:
        walk.emit(walk.submit, "failed")
        return walk.finish()
    mt_mode = any(m.start_t is not None and m.finish_t is not None
                  for m in job.mts.values())
    if mt_mode:
        _walk_monotasks(walk, unit, job)
    elif job.tasks:
        _walk_tasks(walk, job)
    else:
        _walk_job_only(walk, job)
    return walk.finish()


def _walk_job_only(walk: _Walk, job: JobSpan) -> None:
    if job.jm_start_t is not None:
        _chain_to_submit(walk, job, None)


def _chain_to_submit(walk: _Walk, job: JobSpan, ready_t: Optional[float]) -> None:
    """Root task reached: close the chain through JM startup and admission."""
    if ready_t is not None:
        walk.emit(ready_t, "other")
    if job.jm_start_t is not None:
        walk.emit(job.jm_start_t, "other")
    if job.admit_t is not None:
        walk.emit(job.admit_t, "jm_startup")
        walk.emit(job.submit_t, "admission_wait")
    else:
        walk.emit(job.submit_t, "jm_startup")


def _enabling_task(job: JobSpan, ready_t: float,
                   exclude: int) -> Optional[TaskSpan]:
    """The parent task whose completion made this task ready.

    The JM marks children ready in the same simulation instant their last
    parent finishes, so the enabler is exactly a task with
    ``finish_t == ready_t`` (smallest id on ties, for determinism)."""
    best = None
    for span in job.tasks.values():
        if span.task == exclude or span.finish_t != ready_t:
            continue
        if best is None or span.task < best.task:
            best = span
    return best


def _walk_tasks(walk: _Walk, job: JobSpan) -> None:
    """Task-level walk (executor-model baselines: no queue/grant events)."""
    cur = _last_finisher(job.tasks.values())
    if cur is None:
        _walk_job_only(walk, job)
        return
    walk.emit(cur.finish_t, "other")
    seen: set[int] = set()
    while cur is not None and cur.task not in seen:
        seen.add(cur.task)
        ready = cur.ready_t if cur.ready_t is not None else cur.finish_t
        walk.emit_gap(ready, "execution", task=cur.task)
        prev = _enabling_task(job, ready, cur.task)
        if prev is None:
            _chain_to_submit(walk, job, ready)
            return
        walk.emit_gap(prev.finish_t, "other", task=cur.task)
        cur = prev


def _run_segments(walk: _Walk, unit: UnitTrace, mt: MtSpan) -> None:
    """Split the run interval into pure service time vs. contention excess.

    Pure time is ``work_mb`` over the worker's *nominal* per-slot rate (the
    ``worker_spec`` event); anything beyond that is queueing inside the
    machine-level service (shared fabric / spindle / core ledger) — i.e.
    contention, the paper's granted-rate-below-nominal slowdown."""
    dur = mt.finish_t - mt.start_t
    rate = unit.nominal_rate(mt.worker, mt.rtype)
    amount = mt.work_mb if mt.work_mb > 0 else mt.input_mb
    pure = amount / rate if rate > 0 else dur
    if pure > dur:
        pure = dur
    label = {"cpu": "compute", "network": "transfer", "disk": "disk_io"}.get(
        mt.rtype, "execution"
    )
    meta = {"mt": mt.mt, "task": mt.task, "worker": mt.worker, "rtype": mt.rtype}
    walk.emit(mt.start_t + pure, f"contention_{mt.rtype}", **meta)
    walk.emit(mt.start_t, label, **meta)


def _walk_monotasks(walk: _Walk, unit: UnitTrace, job: JobSpan) -> None:
    """Monotask-level walk (Ursa units: full queue/grant instrumentation)."""
    cur = _last_finisher(job.mts.values())
    walk.emit(cur.finish_t, "other")
    seen: set[int] = set()
    while cur is not None and cur.mt not in seen:
        seen.add(cur.mt)
        if cur.start_t is None or cur.finish_t is None:
            # lost to a fault and never re-run to completion on this id;
            # close out through the task chain below
            break
        _run_segments(walk, unit, cur)
        if cur.push_t is not None:
            walk.emit(cur.push_t, f"queue_wait_{cur.rtype}",
                      mt=cur.mt, task=cur.task, worker=cur.worker)
        task = job.tasks.get(cur.task) if cur.task is not None else None
        intra = [
            job.mts[p] for p in cur.parents
            if p in job.mts and task is not None and p in task.mts
        ]
        prev = _last_finisher(intra)
        if prev is not None:
            # intra-task child: the JM enqueues it the instant its last
            # parent finishes, so this gap is zero in fault-free runs
            walk.emit_gap(prev.finish_t, "sched_delay", mt=cur.mt, task=cur.task)
            cur = prev
            continue
        # task-source monotask: pushed by place_task; chain through the
        # task's ready/placed anchors to the enabling parent task
        if task is None or task.ready_t is None:
            walk.emit_gap(walk.submit, "sched_delay", mt=cur.mt)
            return
        placed = task.placed_t if task.placed_t is not None else task.ready_t
        walk.emit_gap(placed, "other", task=task.task)
        walk.emit_gap(task.ready_t, "sched_delay", task=task.task)
        enabler = _enabling_task(job, task.ready_t, task.task)
        if enabler is None:
            _chain_to_submit(walk, job, task.ready_t)
            return
        walk.emit_gap(enabler.finish_t, "other", task=task.task)
        cur = _last_finisher(
            [job.mts[m] for m in enabler.mts if m in job.mts]
        )
        if cur is None:
            walk.emit_gap(enabler.ready_t if enabler.ready_t is not None
                          else walk.submit, "execution", task=enabler.task)
            _chain_to_submit(walk, job, enabler.ready_t)
            return
