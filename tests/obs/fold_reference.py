"""Reference readers for the one-fold differential test.

Before the observability products shared one fold per unit, telemetry and
the latency tables each walked a unit's rows on their own, each with its
own push→grant matcher.  Those two readers are kept here unchanged in
behaviour: :class:`ReferenceTelemetry` with :func:`reference_summary` (the
per-unit telemetry fold and its snapshot) and :func:`reference_latency`
(the latency derivation over ``(unit label, rows)`` pairs).  The matcher
also forgets the pushes a ``queue_evict`` row names, as telemetry's did.

Telemetry's reader feeds its frozen accumulators (:mod:`tests.\
step_reference`) through :meth:`ReferenceTelemetry._set`, which applies
the two rules the live fold's step series make explicit: a value equal to
the current one is no change, and a change takes effect at the unit's
latest row time (its clock), which with no engine is also the horizon.
"""

from repro.obs import events as ev
from repro.obs.latency import RESOURCE_ORDER, dist
from repro.obs.telemetry import JCT_BOUNDS, RTYPES, _sum_series
from repro.obs.timeseries import LATENCY_BOUNDS, StreamingHistogram

from ..step_reference import StepAccumulator

_COUNTER_KEYS = (
    "grants", "bypass_grants", "releases", "aborts",
    "queue_pushes", "queue_pops", "queue_evicted",
    "jobs_submitted", "jobs_admitted", "jobs_started",
    "jobs_completed", "jobs_failed", "jobs_failed_unadmitted",
    "sched_ticks", "tasks_assigned",
    "retries", "monotasks_lost", "worker_down", "worker_up",
    "wasted_work_mb",
    "jobs_shed", "autoscale_up", "autoscale_down",
)
_TRACE_ONLY = frozenset({
    ev.TASK_READY, ev.TASK_DEPS, ev.TASK_PLACED, ev.MT_FINISH,
    ev.TASK_FINISH, ev.JM_START,
})
_COUNTED = {
    ev.JOB_SUBMIT: "jobs_submitted", ev.JOB_ADMIT: "jobs_admitted",
    ev.JOB_STARTED: "jobs_started", ev.JOB_COMPLETED: "jobs_completed",
    ev.JOB_FAILED: "jobs_failed", ev.WORKER_DOWN: "worker_down",
    ev.WORKER_UP: "worker_up", ev.RETRY: "retries", ev.JOB_SHED: "jobs_shed",
}


class _PushGrants:
    """Pairs ``queue_push`` rows with the ``mt_start`` rows granting them."""

    def __init__(self) -> None:
        self._pushed: dict[tuple, float] = {}

    def push(self, row: tuple) -> None:
        self._pushed[row[4], row[5]] = row[1]

    def grant(self, row: tuple):
        t0 = self._pushed.pop((row[4], row[5]), None)
        return None if row[7] else t0

    def evict(self, keys) -> None:
        for key in keys:
            self._pushed.pop(key, None)


class ReferenceTelemetry:
    """One unit's telemetry state, folded from every row of the unit."""

    def __init__(self, interval: float = 1.0):
        self.interval = interval
        self.counters: dict[str, float] = {k: 0 for k in _COUNTER_KEYS}
        self.counters["wasted_work_mb"] = 0.0
        self.capacity: dict[tuple[int, str], int] = {}
        self.busy: dict[tuple[int, str], StepAccumulator] = {}
        self.queue: dict[tuple[int, str], tuple] = {}
        self.admission_q = StepAccumulator(interval)
        self.running_jobs = StepAccumulator(interval)
        self.alloc_hist = {r: StreamingHistogram(LATENCY_BOUNDS) for r in RTYPES}
        self.admission_wait_hist = StreamingHistogram(JCT_BOUNDS)
        self.jct_hist = StreamingHistogram(JCT_BOUNDS)
        self.grants = _PushGrants()
        self.down_since: dict[int, float] = {}
        self.repair_times: list[float] = []
        self.recovery_times: list[float] = []
        #: the latest row time of any kind
        self.clock = 0.0

    def _set(self, acc: StepAccumulator, value) -> None:
        """Change ``acc`` at the clock, unless ``value`` is its current one."""
        if value != acc.value:
            acc.set(self.clock, value)

    def _busy(self, key):
        acc = self.busy.get(key)
        if acc is None:
            acc = self.busy[key] = StepAccumulator(self.interval)
        return acc

    def _queue(self, key):
        q = self.queue.get(key)
        if q is None:
            q = self.queue[key] = (StepAccumulator(self.interval),
                                   StepAccumulator(self.interval))
        return q

    def fold(self, rows) -> None:
        c = self.counters
        name = ev.RTYPE_NAME
        for row in rows:
            kind = row[0]
            if row[1] > self.clock:
                self.clock = row[1]
            if kind == ev.MT_START:
                t = row[1]
                key = (row[2], name[row[3]])
                c["grants"] += 1
                if row[7]:
                    c["bypass_grants"] += 1
                t0 = self.grants.grant(row)
                self.alloc_hist[key[1]].observe(0.0 if t0 is None else t - t0)
                busy = self._busy(key)
                self._set(busy, busy.value + 1.0)
            elif kind == ev.RES_RELEASE:
                c["releases"] += 1
                busy = self._busy((row[2], name[row[3]]))
                self._set(busy, busy.value - 1.0)
            elif kind == ev.QUEUE_PUSH or kind == ev.QUEUE_POP:
                _, t, worker, rtype, _, _, qlen, work_mb = row
                if kind == ev.QUEUE_PUSH:
                    c["queue_pushes"] += 1
                    self.grants.push(row)
                else:
                    c["queue_pops"] += 1
                depth, mb = self._queue((worker, name[rtype]))
                self._set(depth, qlen)
                self._set(mb, work_mb)
            elif kind in _TRACE_ONLY:
                continue
            elif kind == ev.SCHED_TICK:
                c["sched_ticks"] += 1
                c["tasks_assigned"] += row[2]
            elif kind == ev.MT_LOST:
                c["monotasks_lost"] += 1
                if row[8]:
                    c["aborts"] += 1
                    busy = self._busy((row[2], name[row[3]]))
                    self._set(busy, busy.value - 1.0)
            elif kind == ev.QUEUE_EVICT:
                _, t, worker, rtype, qlen, work_mb, keys = row
                c["queue_evicted"] += len(keys)
                self.grants.evict(keys)
                depth, mb = self._queue((worker, name[rtype]))
                self._set(depth, qlen)
                self._set(mb, work_mb)
            elif kind == ev.WORKER_SPEC:
                worker, cores, disks, net = row[2:6]
                for rtype, limit in (("cpu", cores), ("network", net), ("disk", disks)):
                    self.capacity[(worker, rtype)] = limit
                    self._busy((worker, rtype))
                    self._queue((worker, rtype))
            else:
                self._fold_rare(kind, row)

    def _fold_rare(self, kind, row) -> None:
        c = self.counters
        t = row[1]
        if kind in _COUNTED:
            c[_COUNTED[kind]] += 1
        if kind == ev.JOB_SUBMIT:
            self._set(self.admission_q, row[5])
        elif kind == ev.JOB_ADMIT:
            self.admission_wait_hist.observe(row[3])
        elif kind == ev.ADMISSION_QUEUE:
            self._set(self.admission_q, row[2])
        elif kind == ev.JOB_STARTED or kind == ev.JOB_FAILED:
            self._set(self.running_jobs, row[2])
        elif kind == ev.JOB_COMPLETED:
            self.jct_hist.observe(row[2])
            self._set(self.running_jobs, row[3])
        elif kind == ev.JOB_FINISH and row[5]:
            c["jobs_failed"] += 1
            c["jobs_failed_unadmitted"] += 1
        elif kind == ev.WORKER_DOWN:
            self.down_since[row[2]] = t
        elif kind == ev.WORKER_UP:
            down = self.down_since.pop(row[2], None)
            if down is not None:
                self.repair_times.append(t - down)
            self._set(self.admission_q, row[3])
        elif kind == ev.WASTED_WORK:
            c["wasted_work_mb"] += row[2]
        elif kind == ev.FAULT_RECOVERY:
            self.recovery_times.append(row[2])
        elif kind == ev.AUTOSCALE:
            c["autoscale_up" if row[2] > 0 else "autoscale_down"] += 1


def reference_summary(u: ReferenceTelemetry) -> dict:
    """The snapshot ``unit_summary`` gives a unit with no engine."""
    end = u.clock
    rt_util = {}
    for rtype in RTYPES:
        workers = sorted(w for (w, r) in u.busy if r == rtype)
        cap = sum(u.capacity.get((w, rtype), 0) for w in workers)
        integral = busy_s = peak = 0.0
        per_series = []
        for w in workers:
            acc = u.busy[(w, rtype)]
            per_series.append(acc.series(end))
            integral += acc.integral
            busy_s += acc.busy_seconds
            peak = max(peak, acc.peak)
        summed = _sum_series(per_series)
        rt_util[rtype] = {
            "capacity": cap,
            "busy_seconds": busy_s,
            "active_mean": integral / end if end > 0 else 0.0,
            "mean": integral / (cap * end) if cap and end > 0 else 0.0,
            "worker_peak_active": peak,
            "series": [x / cap for x in summed] if cap else summed,
        }
    workers_out: dict[str, dict] = {}
    for (w, rtype) in sorted(u.busy):
        acc = u.busy[(w, rtype)]
        workers_out.setdefault(str(w), {})[rtype] = {
            "capacity": u.capacity.get((w, rtype), 0),
            "busy_seconds": acc.busy_seconds,
            "mean_active": acc.integral / end if end > 0 else 0.0,
            "peak_active": acc.peak,
        }
    queues = {}
    for rtype in RTYPES:
        workers = sorted(w for (w, r) in u.queue if r == rtype)
        depth = [u.queue[(w, rtype)][0] for w in workers]
        mb = [u.queue[(w, rtype)][1] for w in workers]
        for acc in depth + mb:
            acc.advance(end)
        queues[rtype] = {
            "depth_mean": sum(a.integral for a in depth) / end if end > 0 else 0.0,
            "depth_worker_peak": max((a.peak for a in depth), default=0.0),
            "depth_series": _sum_series([a.series(end) for a in depth]),
            "mb_mean": sum(a.integral for a in mb) / end if end > 0 else 0.0,
            "mb_worker_peak": max((a.peak for a in mb), default=0.0),
            "mb_series": _sum_series([a.series(end) for a in mb]),
        }
    rep, rec_ = u.repair_times, u.recovery_times
    return {
        "sim_end": end,
        "engine_events": 0,
        "counters": dict(u.counters),
        "utilization": rt_util,
        "workers": workers_out,
        "queues": queues,
        "admission_queue": _gauge_summary(u.admission_q, end),
        "running_jobs": _gauge_summary(u.running_jobs, end),
        "alloc_latency": {r: u.alloc_hist[r].as_dict() for r in RTYPES},
        "admission_wait": u.admission_wait_hist.as_dict(),
        "jct": u.jct_hist.as_dict(),
        "faults": {
            "repair_count": len(rep),
            "repair_mean_s": sum(rep) / len(rep) if rep else 0.0,
            "repair_max_s": max(rep) if rep else 0.0,
            "recovery_count": len(rec_),
            "recovery_mean_s": sum(rec_) / len(rec_) if rec_ else 0.0,
            "recovery_max_s": max(rec_) if rec_ else 0.0,
            "wasted_work_mb": u.counters["wasted_work_mb"],
        },
    }


def _gauge_summary(acc: StepAccumulator, end: float) -> dict:
    series = acc.series(end)
    return {
        "mean": acc.integral / end if end > 0 else 0.0,
        "peak": acc.peak,
        "series": series,
    }


def reference_latency(runs) -> dict:
    """The latency tables of ``(unit label, rows)`` pairs, telemetry-only
    rows left out (as the trace view left them out)."""
    grants: dict[str, _PushGrants] = {}
    ready_t: dict[tuple, float] = {}
    alloc: dict[str, list[float]] = {r: [] for r in RESOURCE_ORDER}
    qwait: dict[str, list[float]] = {r: [] for r in RESOURCE_ORDER}
    placement: list[float] = []
    admission: list[float] = []
    n_events = 0
    for unit, rows in runs:
        rows = [row for row in rows if row[0] not in ev.TELEMETRY_ONLY]
        if not rows:
            continue
        n_events += len(rows)
        matcher = grants.get(unit) or grants.setdefault(unit, _PushGrants())
        for row in rows:
            kind = row[0]
            if kind == ev.QUEUE_PUSH:
                matcher.push(row)
            elif kind == ev.MT_START:
                rtype = ev.RTYPE_NAME[row[3]]
                t0 = matcher.grant(row)
                if t0 is None:
                    alloc[rtype].append(0.0)
                else:
                    alloc[rtype].append(row[1] - t0)
                    qwait[rtype].append(row[1] - t0)
            elif kind == ev.TASK_READY:
                ready_t[(unit, row[2], row[3])] = row[1]
            elif kind == ev.TASK_PLACED:
                t0 = ready_t.pop((unit, row[2], row[3]), None)
                if t0 is not None:
                    placement.append(row[1] - t0)
            elif kind == ev.JOB_ADMIT:
                admission.append(row[3])
    return {
        "alloc_latency": {r: d for r, vs in alloc.items() if (d := dist(vs))},
        "queue_wait": {r: d for r, vs in qwait.items() if (d := dist(vs))},
        "placement_latency": dist(placement),
        "admission_wait": dist(admission),
        "n_events": n_events,
        "units": list(grants),
    }
