"""Opt-in lifecycle-event recorder, installed as one module global.

The scheduling/execution hot paths read one module global
(:data:`RECORDER`) per hook site and skip every instrumentation branch
while it is ``None``, so tracing costs near zero when disabled.  Events are
pure observations — recording never schedules, mutates, or consults the
wall clock — so an instrumented run produces metrics bit-identical to an
uninstrumented one, and the trace itself is as deterministic as the
simulation.

Usage::

    from repro.obs import recorder

    rec = recorder.enable()
    ...run simulations...
    events = recorder.disable().events

or via the CLI: ``python -m repro.experiments --trace --only table2
--scale tiny`` (tracing forces serial in-process execution — worker
processes would not share the parent's recorder).

Hook sites call the typed ``job_submit`` / ``queue_push`` / ``mt_start`` /
... helpers; each appends one schema dict (see :mod:`repro.obs.events`).
Enable the recorder *before* building the :class:`~repro.simcore.engine.\
Simulation`: the engine binds its observer hook at construction.
"""

from __future__ import annotations

from typing import Optional

from . import events as _ev

__all__ = ["TraceRecorder", "RECORDER", "enable", "disable"]


class TraceRecorder:
    """Accumulates lifecycle events (plain dicts) across simulation units."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        #: label of the simulation unit currently being traced; the parallel
        #: runner's serial path rebinds this per unit, direct users may too
        self.unit: str = "run"
        #: per-unit engine counters fed by the Simulation observer hook:
        #: unit -> [events_fired, last_sim_time]
        self.engine_stats: dict[str, list] = {}

    def begin_unit(self, label: str) -> None:
        """All subsequent events belong to simulation unit ``label``."""
        self.unit = str(label)

    def emit(self, kind: str, t: float, **fields) -> None:
        ev = {"t": t, "kind": kind, "unit": self.unit}
        ev.update(fields)
        self.events.append(ev)

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # engine observer (bound by Simulation.__init__ while enabled)
    # ------------------------------------------------------------------
    def engine_observer(self, handle) -> None:
        """Counts fired simulation events per unit (trace metadata, not an
        event stream — a per-event dict would dwarf the lifecycle trace)."""
        stats = self.engine_stats.get(self.unit)
        if stats is None:
            stats = self.engine_stats[self.unit] = [0, 0.0]
        stats[0] += 1
        stats[1] = handle.time

    # ------------------------------------------------------------------
    # typed hook helpers (one per schema kind)
    # ------------------------------------------------------------------
    def worker_spec(
        self, t: float, worker: int, cores: int, disks: int, net: int,
        core_rate_mbps: float, net_mbps: float, disk_mbps: float,
    ) -> None:
        self.emit(
            _ev.WORKER_SPEC, t, worker=worker, cores=cores, disks=disks,
            net=net, core_rate_mbps=core_rate_mbps, net_mbps=net_mbps,
            disk_mbps=disk_mbps,
        )

    def job_submit(self, t: float, job: int, name: str, mem_mb: float, qlen: int) -> None:
        self.emit(_ev.JOB_SUBMIT, t, job=job, name=name, mem_mb=mem_mb, qlen=qlen)

    def job_admit(self, t: float, job: int, waited: float, reserved_mb: float) -> None:
        self.emit(_ev.JOB_ADMIT, t, job=job, waited=waited, reserved_mb=reserved_mb)

    def jm_start(self, t: float, job: int) -> None:
        self.emit(_ev.JM_START, t, job=job)

    def task_ready(
        self, t: float, job: int, task: int, stage: int, n_mt: int, input_mb: float
    ) -> None:
        self.emit(
            _ev.TASK_READY, t, job=job, task=task, stage=stage, n_mt=n_mt,
            input_mb=input_mb,
        )

    def task_deps(self, t: float, job: int, task: int, mts: list) -> None:
        # ``mts`` rows are [mt, rtype, input_mb, work_mb, [parent_mt, ...]]
        self.emit(_ev.TASK_DEPS, t, job=job, task=task, mts=mts)

    def sched_tick(self, t: float, assigned: int) -> None:
        self.emit(_ev.SCHED_TICK, t, assigned=assigned)

    def task_placed(
        self, t: float, job: int, task: int, worker: int, score: float, n_mt: int
    ) -> None:
        self.emit(
            _ev.TASK_PLACED, t, job=job, task=task, worker=worker, score=score,
            n_mt=n_mt,
        )

    def queue_push(
        self, t: float, worker: int, rtype: str, job: int, mt: int, qlen: int
    ) -> None:
        self.emit(_ev.QUEUE_PUSH, t, worker=worker, rtype=rtype, job=job, mt=mt, qlen=qlen)

    def queue_pop(
        self, t: float, worker: int, rtype: str, job: int, mt: int, qlen: int
    ) -> None:
        self.emit(_ev.QUEUE_POP, t, worker=worker, rtype=rtype, job=job, mt=mt, qlen=qlen)

    def mt_start(
        self, t: float, worker: int, rtype: str, job: int, mt: int,
        running: int, bypass: bool,
    ) -> None:
        self.emit(
            _ev.MT_START, t, worker=worker, rtype=rtype, job=job, mt=mt,
            running=running, bypass=bypass,
        )

    def res_release(self, t: float, worker: int, rtype: str, mt: int, running: int) -> None:
        self.emit(_ev.RES_RELEASE, t, worker=worker, rtype=rtype, mt=mt, running=running)

    def mt_finish(
        self, t: float, job: int, task: int, mt: int, rtype: str, worker: int
    ) -> None:
        self.emit(_ev.MT_FINISH, t, job=job, task=task, mt=mt, rtype=rtype, worker=worker)

    def task_finish(self, t: float, job: int, task: int, worker: int) -> None:
        self.emit(_ev.TASK_FINISH, t, job=job, task=task, worker=worker)

    def job_finish(self, t: float, job: int, jct: float, failed: bool = False) -> None:
        # `failed` is only serialized when set so failure-free traces keep
        # the exact pre-fault-layer schema
        if failed:
            self.emit(_ev.JOB_FINISH, t, job=job, jct=jct, failed=True)
        else:
            self.emit(_ev.JOB_FINISH, t, job=job, jct=jct)

    def worker_down(self, t: float, worker: int, cause: str) -> None:
        self.emit(_ev.WORKER_DOWN, t, worker=worker, cause=cause)

    def worker_up(self, t: float, worker: int) -> None:
        self.emit(_ev.WORKER_UP, t, worker=worker)

    def mt_lost(
        self, t: float, worker: int, rtype: str, job: int, task: int, mt: int,
        reason: str,
    ) -> None:
        self.emit(
            _ev.MT_LOST, t, worker=worker, rtype=rtype, job=job, task=task,
            mt=mt, reason=reason,
        )

    def retry(self, t: float, job: int, task: int, attempt: int, reason: str) -> None:
        self.emit(_ev.RETRY, t, job=job, task=task, attempt=attempt, reason=reason)


#: The active recorder, or ``None`` when tracing is off.  Hook sites read
#: this exactly once per call and branch away while it is ``None``.
RECORDER: Optional[TraceRecorder] = None


def enable() -> TraceRecorder:
    """Install (and return) a fresh global recorder."""
    global RECORDER
    RECORDER = TraceRecorder()
    return RECORDER


def disable() -> Optional[TraceRecorder]:
    """Uninstall the global recorder and return it (None if not enabled)."""
    global RECORDER
    rec, RECORDER = RECORDER, None
    return rec
