"""Event schema for monotask lifecycle tracing.

Hooks are *recorded* as flat rows ``(kind, t, field, ...)``, fields in
:data:`FIELDS` order.  Rows are the only in-process form: every analysis
reads one per-unit fold of them (:func:`repro.obs.critpath.fold_rows`).
Dicts exist only at the file boundary: :func:`event_from_row` builds them
for the writers (iterating ``recorder.events``, which leaves
:data:`TELEMETRY_ONLY` rows out) and :func:`row_from_event`, the one
converter back, runs where a JSONL trace is read.  Every event dict has three fields:

* ``t``    — simulation time in seconds (never wall clock: traces are as
  deterministic as the simulation that produced them);
* ``kind`` — one of the constants below;
* ``unit`` — label of the simulation unit the event belongs to (one label
  per independent simulation; the Chrome-trace exporter maps each unit to
  its own Perfetto process so overlapping t=0 clocks never collide).

The remaining fields are kind-specific (see each constant).  ``rtype`` is
the :class:`~repro.dataflow.graph.ResourceType` member in a recorded row
and its *value* string (``"cpu"`` / ``"network"`` / ``"disk"``) in a dict
or a row read back from one.  Jobs / tasks / monotasks are referenced by
their integer ids, so a trace can outlive the objects.  Rows may carry
trailing fields, and some kinds (:data:`TELEMETRY_ONLY`) exist, that only
telemetry reads; dicts omit both.
"""

from __future__ import annotations

from ..dataflow.graph import ResourceType

__all__ = [
    "WORKER_SPEC", "JOB_SUBMIT", "JOB_ADMIT", "JM_START", "TASK_READY",
    "TASK_DEPS", "SCHED_TICK", "TASK_PLACED", "QUEUE_PUSH", "QUEUE_POP",
    "MT_START", "RES_RELEASE", "MT_FINISH", "TASK_FINISH", "JOB_FINISH",
    "WORKER_DOWN", "WORKER_UP", "MT_LOST", "RETRY", "ALL_KINDS",
    "QUEUE_EVICT", "ADMISSION_QUEUE", "JOB_STARTED", "JOB_COMPLETED",
    "JOB_FAILED", "WASTED_WORK", "FAULT_RECOVERY", "JOB_SHED", "AUTOSCALE",
    "TELEMETRY_ONLY", "FIELDS", "RTYPE_NAME", "event_from_row", "row_from_event",
]

#: kind -> its exported fields, in row order after ``(kind, t)``.  A row may
#: carry more (telemetry-only) fields after these.
FIELDS: dict[str, tuple[str, ...]] = {}


def _kind(kind: str, *fields: str) -> str:
    FIELDS[kind] = fields
    return kind


#: worker registered with the cluster (emitted once per worker at t=0).
#: Carries the concurrency limits and *nominal* per-slot rates so offline
#: analysis can compute idle capacity and contention slowdown (observed
#: service time vs work_mb / nominal_rate) without the Worker objects.
WORKER_SPEC = _kind("worker_spec", "worker", "cores", "disks", "net",
                    "core_rate_mbps", "net_mbps", "disk_mbps")

#: job arrived at the admission controller
JOB_SUBMIT = _kind("job_submit", "job", "name", "mem_mb", "qlen")
#: admission granted (memory reserved)
JOB_ADMIT = _kind("job_admit", "job", "waited", "reserved_mb")
#: the job's JM started (after the creation delay)
JM_START = _kind("jm_start", "job")
#: all parent tasks done; estimates resolved
TASK_READY = _kind("task_ready", "job", "task", "stage", "n_mt", "input_mb")
#: the task's monotask DAG, emitted right after ``task_ready`` once input
#: estimates are resolved — mts: [[mt, rtype, input_mb, work_mb,
#: [parent_mt, ...]], ...].  Parent ids cover both intra-task edges and
#: cross-task edges (shuffle reads), so the offline critical-path walk can
#: rebuild the full per-job monotask DAG from the trace alone.
TASK_DEPS = _kind("task_deps", "job", "task", "mts")
#: one Algorithm-1 scheduling round finished
SCHED_TICK = _kind("sched_tick", "assigned")
#: placement decision (score = winning F(t,w))
TASK_PLACED = _kind("task_placed", "job", "task", "worker", "score", "n_mt")
#: monotask entered a per-resource worker queue (row: + queued MB)
QUEUE_PUSH = _kind("queue_push", "worker", "rtype", "job", "mt", "qlen")
#: monotask left the queue, resources granted next (row: + queued MB)
QUEUE_POP = _kind("queue_pop", "worker", "rtype", "job", "mt", "qlen")
#: resources granted; monotask starts
MT_START = _kind("mt_start", "worker", "rtype", "job", "mt", "running", "bypass")
#: worker released the slot / accounted completion
RES_RELEASE = _kind("res_release", "worker", "rtype", "mt", "running")
#: the JM observed the monotask finish
MT_FINISH = _kind("mt_finish", "job", "task", "mt", "rtype", "worker")
#: last monotask of the task finished
TASK_FINISH = _kind("task_finish", "job", "task", "worker")
#: last task of the job finished; ``failed`` is only exported when set
#: (fault layer kill: jct is then time-to-failure).  Row: + unadmitted
JOB_FINISH = _kind("job_finish", "job", "jct", "failed")
#: fault layer took a worker offline (cause: crash|blackout)
WORKER_DOWN = _kind("worker_down", "worker", "cause")
#: a blacked-out worker rejoined the cluster (row: + admission-queue length)
WORKER_UP = _kind("worker_up", "worker")
#: a queued/running monotask was evicted or aborted (reason:
#: crash|lineage|timeout|job_failed).  Row: + held, whether it held a grant
MT_LOST = _kind("monotask_lost", "worker", "rtype", "job", "task", "mt", "reason")
#: a task restart was charged against its retry budget
RETRY = _kind("retry", "job", "task", "attempt", "reason")

#: every kind a trace can hold
ALL_KINDS = frozenset(FIELDS)

# telemetry-only row kinds, with their fields after (kind, t)
QUEUE_EVICT = "queue_evict"          # worker, rtype, qlen, work_mb, keys
ADMISSION_QUEUE = "admission_queue"  # qlen
JOB_STARTED = "job_started"          # n_active (running jobs)
JOB_COMPLETED = "job_completed"      # jct, n_active
JOB_FAILED = "job_failed"            # n_active
WASTED_WORK = "wasted_work"          # mb a fault threw away
FAULT_RECOVERY = "fault_recovery"    # seconds to re-complete a fault's work
JOB_SHED = "job_shed"                # (an arrival rejected by backpressure)
AUTOSCALE = "autoscale"              # direction (+1 / -1), active workers

TELEMETRY_ONLY = frozenset({
    QUEUE_EVICT, ADMISSION_QUEUE, JOB_STARTED, JOB_COMPLETED, JOB_FAILED,
    WASTED_WORK, FAULT_RECOVERY, JOB_SHED, AUTOSCALE,
})

#: rtype as its schema string, from a row's member or an event's string
RTYPE_NAME = {key: r.value for r in ResourceType for key in (r, r.value)}


def event_from_row(row: tuple, unit: str) -> dict:
    """The exported dict of one recorded row (keys in schema order)."""
    kind = row[0]
    ev = {"t": row[1], "kind": kind, "unit": unit}
    ev.update(zip(FIELDS[kind], row[2:]))
    if "rtype" in ev:
        ev["rtype"] = RTYPE_NAME[ev["rtype"]]
    if kind == TASK_DEPS:
        ev["mts"] = [
            [mt, RTYPE_NAME[rtype], input_mb, work_mb, list(parents)]
            for mt, rtype, input_mb, work_mb, parents in ev["mts"]
        ]
    elif kind == JOB_FINISH:
        # `failed` is only serialized when set, so failure-free traces keep
        # the pre-fault-layer schema
        if ev["failed"]:
            ev["failed"] = True
        else:
            del ev["failed"]
    return ev


#: kind -> neutral values for the trailing telemetry fields its dict omits
_TRAILING = {QUEUE_PUSH: (0.0,), QUEUE_POP: (0.0,), WORKER_UP: (0,),
             MT_LOST: (False,), JOB_FINISH: (False,)}


def row_from_event(ev: dict) -> tuple:
    """The row an event dict came from (``rtype`` stays its string), the
    trailing telemetry fields padded with neutral values so a re-read row
    folds through the same code as a recorded one."""
    kind = ev["kind"]
    names = FIELDS.get(kind)
    if names is None:
        return (kind, ev["t"])
    return (kind, ev["t"], *map(ev.get, names), *_TRAILING.get(kind, ()))
