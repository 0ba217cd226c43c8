"""The unit's one fold, against the readers it replaced.

The idle-blame reference is the two-pass form the ledger had before it
moved into the parse: collect a unit's trace rows, then replay them
through a rolling cluster state and integrate every worker slot's idle
time between consecutive row instants.  Telemetry's and the latency
tables' references (:mod:`.fold_reference`) are the separate readers the
fold absorbed.  Hypothesis-generated row logs must give ``==`` results,
floats included.  The one documented difference: a worker's slots accrue
from its ``worker_spec`` row, where the reference counts them from t=0
(every recorded unit writes its specs before any other row, so no trace
differs).
"""

import json
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.graph import ResourceType
from repro.obs import events as ev
from repro.obs.attribution import (
    IDLE_CAUSES, RTYPES, attribute_unit, idle_blame, render_json,
)
from repro.obs.critpath import parse_events
from repro.obs.latency import derive_latency
from repro.obs.recorder import TraceRecorder
from repro.obs.telemetry import unit_summary

from .fold_reference import ReferenceTelemetry, reference_latency, reference_summary


# ----------------------------------------------------------------------
# the reference sweep
# ----------------------------------------------------------------------
class _ClusterState:
    """Rolling cluster state for the idle-classification sweep."""

    def __init__(self, unit) -> None:
        self.running: dict[tuple[int, str], int] = {}
        self.queued: dict[str, set[int]] = {r: set() for r in RTYPES}
        self.down: set[int] = set()
        self.pending_tasks = 0
        self.waiting_jobs: set[int] = set()
        self.limits = {
            (w, r): spec["limits"][r]
            for w, spec in unit.workers.items()
            for r in RTYPES
        }

    def cause(self, worker: int, rtype: str) -> str:
        if worker in self.down:
            return "fault_down"
        if self.pending_tasks > 0 or self.queued[rtype]:
            return "blocked_policy"
        if self.waiting_jobs:
            return "admission_gated"
        return "no_work"

    def apply(self, row: tuple) -> None:
        kind = row[0]
        if kind == ev.MT_START:
            if not row[7]:
                self.running[(row[2], ev.RTYPE_NAME[row[3]])] = row[6]
        elif kind == ev.RES_RELEASE:
            self.running[(row[2], ev.RTYPE_NAME[row[3]])] = row[5]
        elif kind == ev.QUEUE_PUSH or kind == ev.QUEUE_POP:
            queued = self.queued[ev.RTYPE_NAME[row[3]]]
            if row[6]:
                queued.add(row[2])
            else:
                queued.discard(row[2])
        elif kind == ev.TASK_READY:
            self.pending_tasks += 1
        elif kind == ev.TASK_PLACED:
            self.pending_tasks = max(0, self.pending_tasks - 1)
        elif kind == ev.JOB_SUBMIT:
            self.waiting_jobs.add(row[2])
        elif kind == ev.JOB_ADMIT or kind == ev.JOB_FINISH:
            self.waiting_jobs.discard(row[2])
        elif kind == ev.WORKER_DOWN:
            w = row[2]
            self.down.add(w)
            for r in RTYPES:
                self.running[(w, r)] = 0
                self.queued[r].discard(w)
        elif kind == ev.WORKER_UP:
            self.down.discard(row[2])


def _integrate(state, per_worker, totals, dt):
    for (w, r), limit in state.limits.items():
        idle = limit - state.running.get((w, r), 0)
        if idle <= 0:
            continue
        cause = state.cause(w, r)
        amount = idle * dt
        per_worker[str(w)][r][cause] += amount
        totals[r][cause] += amount


def reference_idle_blame(runs, label):
    """One unit's ledger, swept over its trace rows after they were all read."""
    rows = [row for lab, run in runs if lab == label for row in run
            if row[0] not in ev.TELEMETRY_ONLY]
    unit = SimpleNamespace(workers={}, rows=rows, end_t=0.0)
    for row in rows:
        unit.end_t = max(unit.end_t, row[1])
        if row[0] == ev.WORKER_SPEC:
            _, _, worker, cores, disks, net = row[:6]
            unit.workers[worker] = {
                "limits": {"cpu": cores, "network": net, "disk": disks}}
    per_worker = {
        str(w): {r: {c: 0.0 for c in IDLE_CAUSES} for r in RTYPES}
        for w in sorted(unit.workers)
    }
    totals = {r: {c: 0.0 for c in IDLE_CAUSES} for r in RTYPES}
    if not unit.workers:
        return {"per_worker": {}, "totals": totals,
                "capacity_seconds": {r: 0.0 for r in RTYPES}, "end_t": unit.end_t}
    state = _ClusterState(unit)
    prev_t = 0.0
    for row in unit.rows:
        t = row[1]
        dt = t - prev_t
        if dt > 0:
            _integrate(state, per_worker, totals, dt)
            prev_t = t
        state.apply(row)
    if unit.end_t > prev_t:
        _integrate(state, per_worker, totals, unit.end_t - prev_t)
    capacity = {
        r: unit.end_t * sum(spec["limits"][r] for spec in unit.workers.values())
        for r in RTYPES
    }
    return {"per_worker": per_worker, "totals": totals,
            "capacity_seconds": capacity, "end_t": unit.end_t}


# ----------------------------------------------------------------------
# generated row logs
# ----------------------------------------------------------------------
_RT = list(ResourceType)

#: row name -> the row it makes at ``t`` from two small ids ``a``, ``b`` (a
#: worker and a resource, or a job and a task), a count ``n`` and a flag;
#: fields in recorded order, trailing telemetry fields included.  Monotask
#: ``n`` of job 0 is what pushes, grants (``f``: the bypass lane), evictions
#: and losses (``f``: it held a grant) name.
_ROW = {
    ev.MT_START: lambda t, a, b, n, f: (ev.MT_START, t, a, _RT[b], 0, n, n, f),
    ev.RES_RELEASE: lambda t, a, b, n, f: (ev.RES_RELEASE, t, a, _RT[b], n, n),
    ev.QUEUE_PUSH: lambda t, a, b, n, f: (ev.QUEUE_PUSH, t, a, _RT[b], 0, n, n % 3, 1.0),
    ev.QUEUE_POP: lambda t, a, b, n, f: (ev.QUEUE_POP, t, a, _RT[b], 0, n, n % 3, 1.0),
    ev.TASK_READY: lambda t, a, b, n, f: (ev.TASK_READY, t, a, b, 0, 1, 1.0),
    ev.TASK_PLACED: lambda t, a, b, n, f: (ev.TASK_PLACED, t, a, b, 0, 0.5, 1),
    ev.JOB_SUBMIT: lambda t, a, b, n, f: (ev.JOB_SUBMIT, t, a, "job", 1.0, 0),
    ev.JOB_ADMIT: lambda t, a, b, n, f: (ev.JOB_ADMIT, t, a, 0.0, 1.0),
    ev.JOB_FINISH: lambda t, a, b, n, f: (ev.JOB_FINISH, t, a, float(n), f, False),
    ev.WORKER_DOWN: lambda t, a, b, n, f: (ev.WORKER_DOWN, t, a, "crash"),
    ev.WORKER_UP: lambda t, a, b, n, f: (ev.WORKER_UP, t, a, 0),
    ev.SCHED_TICK: lambda t, a, b, n, f: (ev.SCHED_TICK, t, n),
    ev.RETRY: lambda t, a, b, n, f: (ev.RETRY, t, a, b, 1, "crash"),
    ev.MT_LOST: lambda t, a, b, n, f: (ev.MT_LOST, t, a, _RT[b], 0, 0, n, "crash", f),
    "job_doomed": lambda t, a, b, n, f: (ev.JOB_FINISH, t, a, float(n), True, True),
    # telemetry-only rows
    ev.QUEUE_EVICT: lambda t, a, b, n, f: (ev.QUEUE_EVICT, t, a, _RT[b], n % 3,
                                           0.5, ((0, n),)),
    ev.ADMISSION_QUEUE: lambda t, a, b, n, f: (ev.ADMISSION_QUEUE, t, n),
    ev.JOB_STARTED: lambda t, a, b, n, f: (ev.JOB_STARTED, t, n),
    ev.JOB_COMPLETED: lambda t, a, b, n, f: (ev.JOB_COMPLETED, t, 0.5 * n, n),
    ev.JOB_FAILED: lambda t, a, b, n, f: (ev.JOB_FAILED, t, n),
    ev.WASTED_WORK: lambda t, a, b, n, f: (ev.WASTED_WORK, t, 0.25 * n),
    ev.FAULT_RECOVERY: lambda t, a, b, n, f: (ev.FAULT_RECOVERY, t, 0.75 * n),
    ev.JOB_SHED: lambda t, a, b, n, f: (ev.JOB_SHED, t),
    ev.AUTOSCALE: lambda t, a, b, n, f: (ev.AUTOSCALE, t, 1 if f else -1, n),
}
_GAP = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
_LOG = st.lists(
    st.tuples(_GAP, st.sampled_from(sorted(_ROW)), st.integers(0, 2),
              st.integers(0, 2), st.integers(0, 5), st.booleans()),
    min_size=10, max_size=50,
)


@st.composite
def _unit_runs(draw):
    """One unit's runs: each opens with the workers' specs at t=0 and
    restarts the clock, as re-running a simulation under a label does."""
    limits = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 2),
                                     st.integers(1, 2)), min_size=1, max_size=3))
    runs = []
    # (job, mt) keys whose push a queue_evict dropped; kept across the
    # unit's runs, as the fold's push times are
    evicted = set()
    for _ in range(draw(st.integers(1, 2))):
        rows = [(ev.WORKER_SPEC, 0.0, w, cores, disks, net, 10.0, 5.0, 3.0)
                for w, (cores, disks, net) in enumerate(limits)]
        t = 0.0
        for gap, kind, a, b, n, flag in draw(_LOG):
            t += gap
            row = _ROW[kind](t, a, b, n, flag)
            if row[0] == ev.QUEUE_EVICT:
                evicted.update(row[6])
            elif row[0] in (ev.QUEUE_PUSH, ev.MT_START) and row[4:6] in evicted:
                evicted.discard(row[4:6])
                if row[0] == ev.MT_START and not row[7]:
                    # as in a real queue, a grant follows a fresh push
                    rows.append(_ROW[ev.QUEUE_PUSH](t, a, b, n, flag))
            rows.append(row)
        runs.append(("unit", rows))
    return runs


@settings(max_examples=200, deadline=None)
@given(_unit_runs())
def test_parse_accrues_the_reference_ledger(runs):
    units = parse_events(runs)
    assert idle_blame(units["unit"]) == reference_idle_blame(runs, "unit")


def _strip(runs):
    return [(label, [row for row in rows if row[0] not in ev.TELEMETRY_ONLY])
            for label, rows in runs]


@settings(max_examples=100, deadline=None)
@given(_unit_runs())
def test_fold_gives_the_reference_telemetry_and_latency(runs):
    seam = TraceRecorder()
    for label, rows in runs:
        seam.splice(label, rows, {})
    ref = ReferenceTelemetry()
    for _, rows in runs:
        ref.fold(rows)
    assert json.dumps(unit_summary(seam.folds()["unit"], None, 1.0), sort_keys=True) == \
        json.dumps(reference_summary(ref), sort_keys=True)
    assert derive_latency(seam.folds()) == reference_latency(runs)


@settings(max_examples=100, deadline=None)
@given(_unit_runs())
def test_telemetry_only_rows_leave_the_trace_products_alone(runs):
    """The live fold reads telemetry-only rows, a re-read trace has none:
    both give the same bytes."""
    live, offline = parse_events(runs), parse_events(_strip(runs))
    assert render_json(attribute_unit(live["unit"])) == \
        render_json(attribute_unit(offline["unit"]))
    assert derive_latency(live) == derive_latency(offline)


def test_a_late_worker_spec_accrues_from_its_row():
    spec = (ev.WORKER_SPEC, 0.0, 0, 2, 1, 1, 10.0, 5.0, 3.0)
    late = (ev.WORKER_SPEC, 2.0, 1, 4, 1, 1, 10.0, 5.0, 3.0)
    rows = [spec, (ev.JOB_SUBMIT, 1.0, 0, "job", 1.0, 0), late,
            (ev.JOB_FINISH, 4.0, 0, 3.0, False, False), (ev.SCHED_TICK, 5.0, 0)]
    idle = idle_blame(parse_events([("unit", rows)])["unit"])
    zero = dict.fromkeys(IDLE_CAUSES, 0.0)
    # worker 0 from t=0: no work, then a job waits at admission over [1, 4]
    assert idle["per_worker"]["0"]["cpu"] == {
        **zero, "no_work": 2.0 + 2.0, "admission_gated": 2.0 + 4.0}
    # worker 1 only from its spec at t=2
    assert idle["per_worker"]["1"]["cpu"] == {
        **zero, "no_work": 4.0, "admission_gated": 8.0}
    assert idle["per_worker"]["1"]["network"] == {
        **zero, "no_work": 1.0, "admission_gated": 2.0}
    assert idle["totals"]["cpu"] == {**zero, "no_work": 8.0, "admission_gated": 14.0}
    assert idle["capacity_seconds"]["cpu"] == 5.0 * 6
    # the reference counts worker 1 from t=0 instead
    ref = reference_idle_blame([("unit", rows)], "unit")
    assert ref["per_worker"]["1"]["cpu"]["admission_gated"] == 12.0
