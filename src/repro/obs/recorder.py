"""The observation seam: one module global, one flat row per hook.

The hot paths read one module global (:data:`RECORDER`) per hook site and
branch away while it is ``None``.  While the trace or telemetry is on, each
hook site makes one typed call that appends one flat tuple row ``(kind, t,
fields...)`` (:data:`repro.obs.events.FIELDS`) — no dict on the hot path.
Rows are the only in-process trace form.  The seam owns each unit's one
fold of them (:meth:`TraceRecorder.folds`, :func:`repro.obs.critpath.\
fold_rows`), advanced incrementally; telemetry, the latency tables and the
attribution all read it.  The event dicts of ``rec.events`` exist only for
the writers (see :mod:`repro.obs.events` for the one converter).  Rows are
pure observations (no scheduling, no mutation, no wall clock), so
instrumented runs stay bit-identical to uninstrumented ones and the trace
is deterministic.

Usage::

    from repro.obs import recorder

    rec = recorder.enable()
    ...run simulations...
    events = recorder.disable().events

or via the CLI: ``python -m repro.experiments --trace --only table2
--scale tiny``.  ``recorder.enable()`` and ``telemetry.enable()`` attach to
the same seam in either order; telemetry alone records the rows it reads
but exposes no trace (:func:`tracing` says whether a trace was requested).
While telemetry holds the seam, ``recorder.enable()`` starts the trace on
it at its next row, so telemetry keeps every row it saw.
The seam owns the units and their engines: a :class:`~repro.simcore.\
engine.Simulation` built while it is on registers under the current unit,
and :meth:`TraceRecorder.engine_stats` (the Chrome trace's and telemetry's
numbers) reads them off the engines — no per-event call.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import islice, starmap
from typing import Iterable, Iterator, Optional

from . import events as _ev
from .critpath import UnitTrace, fold_rows, parse_events

__all__ = ["TraceRecorder", "EventView", "RECORDER", "enable", "disable", "tracing"]


def _hook(kind: str):
    """A hook both the trace and telemetry read: appends ``(kind, t, *fields)``."""
    def hook(self, *t_fields):
        self._append((kind,) + t_fields)
    return hook


def _trace_hook(kind: str):
    """A hook only the trace reads."""
    def hook(self, *t_fields):
        if self.tracing:
            self._append((kind,) + t_fields)
    return hook


def _telemetry_hook(kind: str):
    """A hook only telemetry reads, left out of the trace."""
    def hook(self, *t_fields):
        if self.telemetry is not None:
            self._append((kind,) + t_fields)
    return hook


class TraceRecorder:
    """The row log every hook site appends to, across simulation units.

    The trace is the rows recorded while tracing was on, minus the
    telemetry-only rows; :attr:`events` shows it as event dicts."""

    def __init__(self, trace: bool = True) -> None:
        #: the row log: one ``(kind, t, fields...)`` tuple per hook
        self.rows: list[tuple] = []
        self._append = self.rows.append
        #: (unit label, first row), in recording order
        self._segments: list[tuple[str, int]] = [("run", 0)]
        #: label of the simulation unit currently being recorded
        self.unit: str = "run"
        #: unit -> [events fired, engine clock] of its sealed engines (the
        #: current unit's are still in _engines; pool workers' are spliced)
        self._engine_stats: dict[str, list] = {}
        #: the engines built during the current unit
        self._engines: list = []
        #: the attached TelemetryCollector reading these rows, or None
        self.telemetry = None
        #: whether trace rows are recorded right now
        self.tracing = trace
        #: the trace is rows [_trace_start, _trace_end) once it stopped
        self._trace_start = 0
        self._trace_end = 0
        #: unit label -> its fold of rows [0, _folded)
        self._folds: dict[str, UnitTrace] = {}
        self._folded = 0
        #: job -> {id(dependency block) -> (blocks, parent ids)}: one id
        #: tuple per shuffle block, shared by all its consumers; a job's
        #: entry goes at its ``job_finish``
        self._dep_ids: dict = {}

    def begin_unit(self, label: str) -> None:
        """All subsequent rows belong to simulation unit ``label``.  Another
        label ends the current unit: its engines are sealed and attached
        telemetry is told (its ``on_unit_end``)."""
        label = str(label)
        if label != self.unit:
            self._seal_engines()
            if self.telemetry is not None:
                self.telemetry.end_unit(self.unit)
        self.unit = label
        self._segments.append((label, len(self.rows)))
        self._dep_ids.clear()  # let go of the previous unit's monotasks

    @property
    def events(self) -> "EventView":
        """The lifecycle trace as a read-only sequence of event dicts."""
        return EventView(self)

    def folds(self) -> dict[str, UnitTrace]:
        """Each unit's fold of every row recorded so far.  A call folds only
        the rows appended since the last one, segment by segment."""
        rows, folds, done = self.rows, self._folds, self._folded
        if done < len(rows):
            segments = self._segments
            ends = [lo for _, lo in segments[1:]] + [len(rows)]
            for (label, lo), hi in zip(segments, ends):
                lo = max(lo, done)
                if lo < hi:
                    fold = folds.get(label)
                    if fold is None:
                        fold = folds[label] = UnitTrace(label)
                    fold_rows(fold, rows[lo:hi])
            self._folded = len(rows)
        return folds

    def units(self) -> dict[str, tuple]:
        """``{label: (fold, engine stats or None)}`` of every unit that
        recorded a row or built an engine, in recording order."""
        folds, engines = self.folds(), self.engine_stats()
        return {label: (folds.get(label) or UnitTrace(label), engines.get(label))
                for label, _ in self._segments if label in folds or label in engines}

    def splice(self, label: str, rows: list, engine_stats: dict) -> None:
        """Append a pool worker's rows as unit ``label``, with its
        :meth:`engine_stats`."""
        self._segments.append((label, len(self.rows)))
        self.rows.extend(rows)
        self._segments.append((self.unit, len(self.rows)))
        self._engine_stats.update(engine_stats)

    def register_engine(self, sim) -> None:
        """Count a new engine (``Simulation.__init__``) under the current
        unit.  Its counters are read when the unit ends or the stats are
        asked for — never per event."""
        self._engines.append(sim)

    def engine_stats(self) -> dict[str, list]:
        """``{unit: [events fired (summed), engine clock (max)]}`` over the
        engines each unit built."""
        stats = dict(self._engine_stats)
        _merge_engines(stats, self.unit, self._engines)
        return stats

    def _seal_engines(self) -> None:
        """Fold the current unit's engines into its stats and let them go."""
        _merge_engines(self._engine_stats, self.unit, self._engines)
        self._engines = []

    # ------------------------------------------------------------------
    # typed hooks: the row fields follow repro.obs.events.FIELDS
    # ------------------------------------------------------------------
    mt_start = _hook(_ev.MT_START)
    res_release = _hook(_ev.RES_RELEASE)
    queue_push = _hook(_ev.QUEUE_PUSH)   # (..., qlen, queued MB)
    queue_pop = _hook(_ev.QUEUE_POP)     # (..., qlen, queued MB)
    worker_spec = _hook(_ev.WORKER_SPEC)
    job_submit = _hook(_ev.JOB_SUBMIT)
    job_admit = _hook(_ev.JOB_ADMIT)
    sched_tick = _hook(_ev.SCHED_TICK)
    worker_down = _hook(_ev.WORKER_DOWN)
    worker_up = _hook(_ev.WORKER_UP)     # (..., admission-queue length)
    mt_lost = _hook(_ev.MT_LOST)         # (..., held: its grant ends here)
    retry = _hook(_ev.RETRY)

    jm_start = _trace_hook(_ev.JM_START)
    task_ready = _trace_hook(_ev.TASK_READY)
    task_placed = _trace_hook(_ev.TASK_PLACED)
    mt_finish = _trace_hook(_ev.MT_FINISH)
    task_finish = _trace_hook(_ev.TASK_FINISH)

    def job_finish(self, t, job, jct, failed: bool = False) -> None:
        self._dep_ids.pop(job, None)  # let go of the job's monotasks
        if self.tracing:
            self._append((_ev.JOB_FINISH, t, job, jct, failed, False))

    def job_doomed(self, t, job, jct) -> None:
        """A waiting job failed before admission (a permanent capacity loss
        left it too large to ever fit): a failed ``job_finish`` that
        telemetry also counts as never admitted."""
        self._append((_ev.JOB_FINISH, t, job, jct, True, True))

    def task_deps(self, t, job, task) -> None:
        """The task's monotask DAG: ``(mt, rtype, input_mb, work_mb,
        parent ids)`` per monotask."""
        if self.tracing:
            cache = self._dep_ids.get(job)
            if cache is None:
                cache = self._dep_ids[job] = {}
            self._append((_ev.TASK_DEPS, t, job, task.task_id, tuple([
                (mt.mt_id, mt.rtype, mt.input_size_mb, mt.work_mb,
                 _parent_ids(mt.parent_blocks, cache))
                for mt in task.monotasks
            ])))

    queue_evict = _telemetry_hook(_ev.QUEUE_EVICT)
    admission_queue = _telemetry_hook(_ev.ADMISSION_QUEUE)
    job_started = _telemetry_hook(_ev.JOB_STARTED)
    job_completed = _telemetry_hook(_ev.JOB_COMPLETED)
    job_failed = _telemetry_hook(_ev.JOB_FAILED)
    wasted_work = _telemetry_hook(_ev.WASTED_WORK)
    fault_recovery = _telemetry_hook(_ev.FAULT_RECOVERY)
    job_shed = _telemetry_hook(_ev.JOB_SHED)
    autoscale = _telemetry_hook(_ev.AUTOSCALE)


def _parent_ids(blocks: tuple, cache: dict) -> tuple:
    """Parent ids in ``Monotask.parents`` order.  A shuffle block's ids are
    built once per job and shared by every consumer row."""
    if all(len(b) == 1 for b in blocks):
        return tuple([b[0].mt_id for b in blocks])
    key = tuple(map(id, blocks))
    hit = cache.get(key)
    if hit is None:
        # holding the blocks keeps their ids from being reused
        hit = cache[key] = (tuple(blocks), tuple([m.mt_id for b in blocks for m in b]))
    return hit[1]


def _merge_engines(stats: dict, label: str, sims: list) -> None:
    if sims:
        fired = sum(sim.events_fired for sim in sims)
        clock = max(sim.now for sim in sims)
        old = stats.get(label)
        stats[label] = [fired, clock] if old is None else \
            [old[0] + fired, max(old[1], clock)]


class EventView(Sequence):
    """The trace of a :class:`TraceRecorder`: its per-unit folds
    (:meth:`folds`, what every analysis reads), its rows in the trace
    window (:meth:`unit_runs`) and, for the writers, a read-only, live
    sequence of event dicts, each built from its row on demand
    (:func:`repro.obs.events.event_from_row`; telemetry-only rows left
    out).  Pickling stores the rows."""

    __slots__ = ("_rec",)

    def __init__(self, rec: TraceRecorder) -> None:
        self._rec = rec

    @classmethod
    def from_runs(cls, runs: Iterable[tuple[str, list]]) -> "EventView":
        """The view of ``(unit label, rows)`` pairs recorded elsewhere."""
        rec = TraceRecorder()
        for label, rows in runs:
            rec.splice(label, rows, {})
        return rec.events

    def _window(self) -> tuple[int, int]:
        rec = self._rec
        return rec._trace_start, len(rec.rows) if rec.tracing else rec._trace_end

    def folds(self) -> dict[str, UnitTrace]:
        """``{unit label: fold}`` of the trace's units: the seam's own folds
        when the trace window covers every recorded row, else a fold of just
        the window."""
        start, stop = self._window()
        if start == 0 and stop == len(self._rec.rows):
            folds = self._rec.folds()
        else:
            folds = parse_events(self.unit_runs())
        return {label: fold for label, fold in folds.items() if fold.n_events}

    def unit_runs(self) -> Iterator[tuple[str, list]]:
        """``(unit label, rows)`` per recorded unit segment in the trace
        window (telemetry-only rows included)."""
        rec = self._rec
        rows, segments = rec.rows, rec._segments
        start, stop = self._window()
        ends = [lo for _, lo in segments[1:]] + [len(rows)]
        for (label, lo), hi in zip(segments, ends):
            lo, hi = max(lo, start), min(hi, stop)
            if lo < hi:
                yield label, rows[lo:hi]

    def _event_rows(self) -> Iterator[tuple[list, str]]:
        telemetry_only = _ev.TELEMETRY_ONLY
        for label, run in self.unit_runs():
            for row in run:
                if row[0] not in telemetry_only:
                    yield row, label

    def __iter__(self) -> Iterator[dict]:
        return starmap(_ev.event_from_row, self._event_rows())

    def __len__(self) -> int:
        return sum(fold.n_events for fold in self.folds().values())

    def __getitem__(self, index):
        if isinstance(index, int) and index >= 0:
            # walk the rows to the one event: no dict for the events before it
            for row, label in islice(self._event_rows(), index, None):
                return _ev.event_from_row(row, label)
            raise IndexError("event index out of range")
        return list(self)[index]

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return (EventView.from_runs, (list(self.unit_runs()),))


#: The active seam, or ``None`` when neither the trace nor telemetry is on.
#: Hook sites read this exactly once per call and branch away while it is
#: ``None``.
RECORDER: Optional[TraceRecorder] = None


def tracing() -> bool:
    """True while a trace is recorded — not just telemetry's rows."""
    return RECORDER is not None and RECORDER.tracing


def enable() -> TraceRecorder:
    """Install (and return) a fresh seam.  While telemetry holds the
    installed seam, start the trace on that seam at its next row instead:
    telemetry keeps every row it saw."""
    global RECORDER
    rec = RECORDER
    if rec is not None and rec.telemetry is not None:
        rec.tracing = True
        rec._trace_start = len(rec.rows)
        return rec
    RECORDER = TraceRecorder()
    return RECORDER


def disable() -> Optional[TraceRecorder]:
    """Stop the trace and return its recorder (None if no trace was on).
    The seam stays installed while telemetry still reads its rows."""
    rec = RECORDER
    if rec is None or not rec.tracing:
        return None
    rec.tracing = False  # rec.events keeps what it holds
    rec._trace_end = len(rec.rows)
    if rec.telemetry is None:
        _uninstall()
    return rec


def _uninstall() -> None:
    global RECORDER
    RECORDER._seal_engines()
    RECORDER._dep_ids.clear()  # let go of the last unit's monotasks
    RECORDER = None


def attach_telemetry(tel) -> TraceRecorder:
    """Record rows for ``tel``, installing a trace-less seam when none is
    on (``telemetry.enable``); returns the seam ``tel`` reads."""
    global RECORDER
    if RECORDER is None:
        RECORDER = TraceRecorder(trace=False)
    RECORDER.telemetry = tel
    return RECORDER


def detach_telemetry(tel) -> None:
    """End ``tel``'s current unit and stop recording rows for it; drop the
    seam unless a trace is on (``telemetry.disable``)."""
    if RECORDER is not None and RECORDER.telemetry is tel:
        tel.end_unit(RECORDER.unit)
        RECORDER.telemetry = None
        if not RECORDER.tracing:
            _uninstall()
