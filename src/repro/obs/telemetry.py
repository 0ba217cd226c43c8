"""Opt-in cluster telemetry: aggregates folded from the observation seam.

Where the lifecycle trace replays every hook row as an event, telemetry
folds the same rows (:mod:`repro.obs.recorder` — one row log for both)
into *aggregated series*: counters, gauges, streaming histograms, and — the
core of it — **exact busy-time integrals** per worker and per resource,
computed from grant/release edges rather than sampling.  A monotask that
runs 37 ms contributes exactly 0.037 busy-seconds to its worker's
resource, no matter how the 1-second resampling grid falls.  Folding is
deferred until a summary needs it and replays rows in recording order, so
the result is what inline aggregation would give; telemetry-on runs stay
bit-identical to telemetry-off runs — enforced by ``tests/obs``.

Usage::

    from repro.obs import telemetry

    tel = telemetry.enable(interval=1.0)
    ...run simulations...
    summary = telemetry.disable().summary()

or via the CLI: ``python -m repro.experiments --telemetry-out DIR`` /
``--dashboard`` (both force serial in-process execution).  Enable it
*before* building the :class:`~repro.simcore.engine.Simulation`: the engine
registers itself at construction so per-unit event counts and the final
clock are harvested without a per-event callback.

Series semantics: signals (active monotasks, queue depth, queued MB,
admission-queue length, running jobs) are piecewise-constant between hook
edges; :class:`~repro.obs.timeseries.StepAccumulator` folds each segment
into fixed-``interval`` bins, so ``series[k]`` is the exact time-weighted
mean over ``[k·interval, (k+1)·interval)``.  Cluster utilization divides
the summed per-worker active counts by the summed concurrency limits —
note the network bypass lane (small transfers) runs *outside* the slot
limit, so network utilization can transiently exceed 1.0.
"""

from __future__ import annotations

from typing import Optional

from ..rules import POS, require
from . import events as _ev
from . import recorder as _rec
from .events import RTYPE_NAME
from .timeseries import LATENCY_BOUNDS, StepAccumulator, StreamingHistogram

__all__ = ["TelemetryCollector", "UnitTelemetry", "TELEMETRY", "enable", "disable",
           "unit_summary", "RTYPES", "JCT_BOUNDS"]

RTYPES = ("cpu", "network", "disk")

#: histogram boundaries (seconds) for job-scale durations (JCT, admission
#: wait) — latencies here are seconds-to-minutes, not milliseconds
JCT_BOUNDS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0)

#: counter keys, pre-seeded so every summary has the same shape
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


_MT_START = _ev.MT_START
_RES_RELEASE = _ev.RES_RELEASE
_QUEUE_PUSH = _ev.QUEUE_PUSH
_QUEUE_POP = _ev.QUEUE_POP
_SCHED_TICK = _ev.SCHED_TICK
#: rows only the trace reads
_TRACE_ONLY = frozenset({
    _ev.TASK_READY, _ev.TASK_DEPS, _ev.TASK_PLACED, _ev.MT_FINISH,
    _ev.TASK_FINISH, _ev.JM_START,
})
#: row kind -> the counter each row of it bumps by one
_COUNTED = {
    _ev.JOB_SUBMIT: "jobs_submitted", _ev.JOB_ADMIT: "jobs_admitted",
    _ev.JOB_STARTED: "jobs_started", _ev.JOB_COMPLETED: "jobs_completed",
    _ev.JOB_FAILED: "jobs_failed", _ev.WORKER_DOWN: "worker_down",
    _ev.WORKER_UP: "worker_up", _ev.RETRY: "retries", _ev.JOB_SHED: "jobs_shed",
}


class UnitTelemetry:
    """All metric state for one simulation unit (one experiment run).

    Telemetry keeps no log of its own: it remembers which rows of the
    seam's row log belong to this unit, and :meth:`fold` replays them into
    the accumulators the first time a summary, the dashboard, or
    ``end_time()`` needs them — in event order, so the aggregates are
    identical to inline aggregation.
    """

    def __init__(self, label: str, interval: float):
        self.label = label
        self.interval = interval
        #: [rows, next unfolded row, end or None while the unit is hot]
        self.ranges: list[list] = []
        self.counters: dict[str, float] = {k: 0 for k in _COUNTER_KEYS}
        self.counters["wasted_work_mb"] = 0.0
        #: (worker, rtype) -> concurrency limit, from the worker_spec rows
        self.capacity: dict[tuple[int, str], int] = {}
        #: (worker, rtype) -> active-monotask StepAccumulator
        self.busy: dict[tuple[int, str], StepAccumulator] = {}
        #: (worker, rtype) -> (queue depth, queued MB) accumulators
        self.queue: dict[tuple[int, str], tuple[StepAccumulator, StepAccumulator]] = {}
        self.admission_q = StepAccumulator(interval)
        self.running_jobs = StepAccumulator(interval)
        self.alloc_hist = {r: StreamingHistogram(LATENCY_BOUNDS) for r in RTYPES}
        self.admission_wait_hist = StreamingHistogram(JCT_BOUNDS)
        self.jct_hist = StreamingHistogram(JCT_BOUNDS)
        #: queue pushes awaiting their grant (allocation latency)
        self.grants = _ev.PushGrants()
        #: worker -> went-down time (blackouts record a repair on rejoin)
        self.down_since: dict[int, float] = {}
        self.repair_times: list[float] = []
        self.recovery_times: list[float] = []
        self.engine = None  # the unit's Simulation, registered at construction
        self.engine_events = 0
        self.sim_end = 0.0

    def unfolded(self) -> int:
        """Rows of this unit recorded but not yet folded."""
        n = 0
        for rows, nxt, stop in self.ranges:
            n += (len(rows) if stop is None else stop) - nxt
        return n

    def is_empty(self) -> bool:
        """True for units that never saw a simulation or a hook — e.g. the
        initial ``"run"`` placeholder when every unit was relabelled.
        Empty units are dropped from summaries and exports."""
        return (self.engine is None and not self.unfolded()
                and not any(self.counters.values()))

    def fold(self) -> None:
        """Replay this unit's unfolded rows into the aggregate structures.

        The rows are replayed in append order, which is event order, so the
        result is exactly what inline aggregation would have produced;
        repeated calls fold only what arrived since the last one.
        """
        for r in self.ranges:
            rows, nxt, stop = r
            if stop is None:
                stop = len(rows)
            if nxt < stop:
                r[1] = stop
                self._fold(rows[nxt:stop])

    def _busy(self, key: tuple) -> StepAccumulator:
        acc = self.busy[key] = StepAccumulator(self.interval)
        return acc

    def _queue(self, key: tuple) -> tuple[StepAccumulator, StepAccumulator]:
        q = self.queue[key] = (StepAccumulator(self.interval),
                               StepAccumulator(self.interval))
        return q

    def _fold(self, rows: list) -> None:
        c = self.counters
        busy = self.busy
        queue = self.queue
        matcher = self.grants
        name = RTYPE_NAME
        grants = bypass = releases = aborts = 0
        pushes = pops = evicted = ticks = assigned = 0
        for row in rows:
            kind = row[0]
            if kind == _MT_START:
                t = row[1]
                key = (row[2], name[row[3]])
                grants += 1
                if row[7]:
                    bypass += 1
                t0 = matcher.grant(row)
                self.alloc_hist[key[1]].observe(0.0 if t0 is None else t - t0)
                (busy.get(key) or self._busy(key)).delta(t, 1.0)
            elif kind == _RES_RELEASE:
                key = (row[2], name[row[3]])
                releases += 1
                (busy.get(key) or self._busy(key)).delta(row[1], -1.0)
            elif kind == _QUEUE_PUSH or kind == _QUEUE_POP:
                _, t, worker, rtype, _, _, qlen, work_mb = row
                key = (worker, name[rtype])
                if kind == _QUEUE_PUSH:
                    pushes += 1
                    matcher.push(row)
                else:
                    pops += 1
                depth, mb = queue.get(key) or self._queue(key)
                depth.set(t, qlen)
                mb.set(t, work_mb)
            elif kind in _TRACE_ONLY:
                continue
            elif kind == _SCHED_TICK:
                ticks += 1
                assigned += row[2]
            elif kind == _ev.MT_LOST:
                c["monotasks_lost"] += 1
                if row[8]:
                    # the grant's busy interval ends here; no release follows
                    key = (row[2], name[row[3]])
                    aborts += 1
                    (busy.get(key) or self._busy(key)).delta(row[1], -1.0)
            elif kind == _ev.QUEUE_EVICT:
                _, t, worker, rtype, qlen, work_mb, keys = row
                key = (worker, name[rtype])
                evicted += len(keys)
                matcher.evict(keys)
                depth, mb = queue.get(key) or self._queue(key)
                depth.set(t, qlen)
                mb.set(t, work_mb)
            elif kind == _ev.WORKER_SPEC:
                worker, cores, disks, net = row[2:6]
                for rtype, limit in (("cpu", cores), ("network", net), ("disk", disks)):
                    key = (worker, rtype)
                    self.capacity[key] = limit
                    busy.get(key) or self._busy(key)
                    queue.get(key) or self._queue(key)
            else:
                self._fold_rare(kind, row)
        c["grants"] += grants
        c["bypass_grants"] += bypass
        c["releases"] += releases
        c["aborts"] += aborts
        c["queue_pushes"] += pushes
        c["queue_pops"] += pops
        c["queue_evicted"] += evicted
        c["sched_ticks"] += ticks
        c["tasks_assigned"] += assigned

    def _fold_rare(self, kind: str, row: tuple) -> None:
        """The low-frequency rows: job lifecycle, faults, service layer."""
        c = self.counters
        t = row[1]
        if kind in _COUNTED:
            c[_COUNTED[kind]] += 1
        if kind == _ev.JOB_SUBMIT:
            self.admission_q.set(t, row[5])
        elif kind == _ev.JOB_ADMIT:
            self.admission_wait_hist.observe(row[3])
        elif kind == _ev.ADMISSION_QUEUE:
            self.admission_q.set(t, row[2])
        elif kind == _ev.JOB_STARTED or kind == _ev.JOB_FAILED:
            self.running_jobs.set(t, row[2])
        elif kind == _ev.JOB_COMPLETED:
            self.jct_hist.observe(row[2])
            self.running_jobs.set(t, row[3])
        elif kind == _ev.JOB_FINISH and row[5]:
            # doomed while waiting: it never held a reservation, so the
            # running-jobs gauge is untouched
            c["jobs_failed"] += 1
            c["jobs_failed_unadmitted"] += 1
        elif kind == _ev.WORKER_DOWN:
            self.down_since[row[2]] = t
        elif kind == _ev.WORKER_UP:
            down = self.down_since.pop(row[2], None)
            if down is not None:
                self.repair_times.append(t - down)
            self.admission_q.set(t, row[3])
        elif kind == _ev.WASTED_WORK:
            c["wasted_work_mb"] += row[2]
        elif kind == _ev.FAULT_RECOVERY:
            self.recovery_times.append(row[2])
        elif kind == _ev.AUTOSCALE:
            c["autoscale_up" if row[2] > 0 else "autoscale_down"] += 1

    def harvest_engine(self) -> None:
        """Pull events-fired / final-time off the registered engine."""
        sim = self.engine
        if sim is not None:
            self.engine_events = sim.events_fired
            self.sim_end = sim.now

    def end_time(self) -> float:
        """The horizon all series are flushed to: the engine's final clock,
        falling back to the latest hook edge when no engine registered."""
        self.fold()
        self.harvest_engine()
        return max([
            self.sim_end, self.admission_q.last_t, self.running_jobs.last_t,
            *(acc.last_t for acc in self.busy.values()),
            *(depth.last_t for depth, _ in self.queue.values()),
        ])


class TelemetryCollector:
    """Aggregated cluster metrics across simulation units.

    The collector has no hooks of its own: it attaches to the observation
    seam (:mod:`repro.obs.recorder`) and folds the rows recorded while it
    was attached, unit by unit (:meth:`UnitTelemetry.fold`).
    """

    def __init__(self, interval: float = 1.0):
        # a NaN or infinite interval would break every resampled series
        require(POS, interval=interval)
        self.interval = interval
        self.units: dict[str, UnitTelemetry] = {}
        self._u = self._unit("run")
        #: the seam's row log while attached (new ranges open on it)
        self._rows: Optional[list] = None
        #: optional ``callback(unit: UnitTelemetry)`` fired when a unit is
        #: sealed (next begin_unit / disable).  The live dashboard hangs off
        #: this; it observes the collector and never touches the simulation,
        #: so determinism guarantees are unaffected.
        self.on_unit_end = None

    def _unit(self, label: str) -> UnitTelemetry:
        u = self.units.get(label)
        if u is None:
            u = self.units[label] = UnitTelemetry(label, self.interval)
        return u

    def _seal_unit(self) -> None:
        u = self._u
        u.harvest_engine()
        if self.on_unit_end is not None and not u.is_empty():
            self.on_unit_end(u)

    # -- seam attachment: the current unit owns rows [len at open, ...) --
    def _attach(self, rows: list) -> None:
        self._rows = rows
        self._u.ranges.append([rows, len(rows), None])

    def _detach(self) -> None:
        rows, self._rows = self._rows, None
        if rows is not None:
            self._u.ranges[-1][2] = len(rows)

    def begin_unit(self, label: str) -> None:
        """All subsequent rows belong to simulation unit ``label``."""
        label = str(label)
        if label == self._u.label:
            return
        rows = self._rows
        self._detach()
        self._seal_unit()
        self._u = self._unit(label)
        if rows is not None:
            self._attach(rows)

    @property
    def unit(self) -> str:
        return self._u.label

    def attach_engine(self, sim) -> None:
        """Register the unit's engine for lazy stats harvesting."""
        self._u.engine = sim

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def live_units(self) -> dict[str, UnitTelemetry]:
        """Units that actually recorded something (empty ones dropped)."""
        return {label: u for label, u in self.units.items() if not u.is_empty()}

    def summary(self) -> dict:
        """JSON-ready snapshot of every non-empty unit plus totals."""
        live = self.live_units()
        units = {label: unit_summary(u) for label, u in live.items()}
        totals: dict[str, float] = {k: 0 for k in _COUNTER_KEYS}
        totals["wasted_work_mb"] = 0.0
        for u in live.values():
            for k, v in u.counters.items():
                totals[k] += v
        return {"interval": self.interval, "units": units, "totals": totals}


def unit_summary(u: UnitTelemetry) -> dict:
    """JSON-ready snapshot of one unit (shared by summary() and the
    dashboard's per-unit panels)."""
    end = u.end_time()
    rt_util = {}
    for rtype in RTYPES:
        workers = sorted(w for (w, r) in u.busy if r == rtype)
        cap = sum(u.capacity.get((w, rtype), 0) for w in workers)
        integral = 0.0
        busy_s = 0.0
        peak = 0.0
        per_series = []
        for w in workers:
            acc = u.busy[(w, rtype)]
            per_series.append(acc.series(end))
            integral += acc.integral
            busy_s += acc.busy_seconds
            if acc.peak > peak:
                peak = acc.peak
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
        "engine_events": u.engine_events,
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


def _sum_series(series_list: list[list[float]]) -> list[float]:
    """Elementwise sum of variable-length series (short ones pad with 0)."""
    if not series_list:
        return []
    n = max(len(s) for s in series_list)
    out = [0.0] * n
    for s in series_list:
        for i, v in enumerate(s):
            out[i] += v
    return out


#: The active collector, or ``None`` when telemetry is off.  Hook sites never
#: read it: they record into the seam (``repro.obs.recorder.RECORDER``).
TELEMETRY: Optional[TelemetryCollector] = None


def enable(interval: float = 1.0) -> TelemetryCollector:
    """Install (and return) a fresh global collector on the seam."""
    global TELEMETRY
    tel = TelemetryCollector(interval)
    if TELEMETRY is not None:
        _rec.detach_telemetry(TELEMETRY)
    _rec.attach_telemetry(tel)
    TELEMETRY = tel
    return TELEMETRY


def disable() -> Optional[TelemetryCollector]:
    """Uninstall the global collector and return it (None if not enabled).
    The final unit's engine stats are harvested on the way out."""
    global TELEMETRY
    tel, TELEMETRY = TELEMETRY, None
    if tel is not None:
        _rec.detach_telemetry(tel)
        tel._seal_unit()
    return tel
