"""Opt-in cluster telemetry: aggregates folded from the observation seam.

Where the lifecycle trace replays every hook row as an event, telemetry
reads the same rows (:mod:`repro.obs.recorder` — one row log for both)
as *aggregated series*: counters, gauges, streaming histograms, and — the
core of it — **exact busy-time integrals** per worker and per resource,
computed from grant/release edges rather than sampling.  A monotask that
runs 37 ms contributes exactly 0.037 busy-seconds to its worker's
resource, no matter how the 1-second resampling grid falls.  The
series live in the seam's one fold per unit
(:func:`repro.obs.critpath.fold_rows`, which builds the trace's products
in the same pass); it is advanced when a summary needs it, in recording
order, so the result is what inline aggregation would give.  A collector
reads every row of its seam, so enable it before the first row.
Telemetry-on runs stay bit-identical to telemetry-off runs — enforced by
``tests/obs``.

Usage::

    from repro.obs import telemetry

    tel = telemetry.enable(interval=1.0)
    ...run simulations...
    summary = telemetry.disable().summary()

or via the CLI: ``python -m repro.experiments --telemetry-out DIR`` /
``--dashboard`` (both force serial in-process execution).  The collector is
a view of the seam: its units, and their event counts and final clocks
(``TraceRecorder.engine_stats``, as in the Chrome trace), are the seam's,
so enable it *before* building the ``Simulation``.

Series semantics: signals (active monotasks, queue depth, queued MB,
admission-queue length, running jobs) are piecewise-constant between hook
edges, each a :class:`~repro.series.StepSeries` that changes at the unit's
clock (its latest row time); a summary reads each one's exact integral,
busy time, peak and fixed-``interval`` bins, so ``series[k]`` is the exact
time-weighted mean over ``[k·interval, (k+1)·interval)``.  Cluster
utilization divides the summed per-worker active counts by the summed
concurrency limits — note the network bypass lane (small transfers) runs
*outside* the slot limit, so network utilization can transiently exceed
1.0.
"""

from __future__ import annotations

from typing import Optional

from ..rules import POS, require
from ..series import StepSeries
from . import recorder as _rec
from .critpath import COUNTER_KEYS, JCT_BOUNDS, RTYPES, UnitTrace
from .timeseries import LATENCY_BOUNDS, StreamingHistogram

__all__ = ["TelemetryCollector", "TELEMETRY", "enable", "disable",
           "unit_summary", "RTYPES", "JCT_BOUNDS"]


class TelemetryCollector:
    """Aggregated cluster metrics across simulation units.

    The collector has no hooks, no fold and no units of its own: the
    observation seam (:mod:`repro.obs.recorder`) records the rows, owns
    the units and registers their engines; a unit's summary reads the
    seam's fold of it and its engine stats (:meth:`summary`).
    """

    def __init__(self, interval: float = 1.0):
        # a NaN or infinite interval would break every resampled series
        require(POS, interval=interval)
        self.interval = interval
        #: the seam this collector reads (set by :func:`enable`)
        self._seam = None
        #: optional ``callback(label, unit summary)`` fired when a unit that
        #: recorded something ends (the seam's next unit, or disable).  The
        #: live dashboard hangs off this; it observes the collector and never
        #: touches the simulation, so determinism guarantees are unaffected.
        self.on_unit_end = None

    def begin_unit(self, label: str) -> None:
        """All subsequent rows belong to simulation unit ``label`` (the
        attached seam's ``begin_unit``)."""
        seam = self._seam
        if seam is not None and seam.telemetry is self:
            seam.begin_unit(label)

    def end_unit(self, label: str) -> None:
        """The seam's unit ``label`` ended: fire :attr:`on_unit_end` if it
        recorded something."""
        if self.on_unit_end is not None:
            unit = self._seam.units().get(label)
            if unit is not None:
                self.on_unit_end(label, unit_summary(*unit, self.interval))

    def summary(self) -> dict:
        """JSON-ready snapshot of every unit that recorded something, in
        recording order, plus totals."""
        seam_units = self._seam.units() if self._seam is not None else {}
        units = {label: unit_summary(fold, engine, self.interval)
                 for label, (fold, engine) in seam_units.items()}
        totals: dict[str, float] = dict.fromkeys(COUNTER_KEYS, 0)
        totals["wasted_work_mb"] = 0.0
        for s in units.values():
            for k, v in s["counters"].items():
                totals[k] += v
        return {"interval": self.interval, "units": units, "totals": totals}


def unit_summary(f: UnitTrace, engine: Optional[list], width: float) -> dict:
    """JSON-ready snapshot of one unit from its fold, its engine stats
    (``[events fired, engine clock]``, or None without an engine) and the
    bin width.  Every series is read to the engine clock, or to the fold's
    latest row time when that is later.  The latency histograms are built
    here from the fold's samples, in row order."""
    events, clock = engine if engine is not None else (0, 0.0)
    end = max(clock, f.clock)
    # (worker, rtype) -> (integral, busy seconds, peak) of its active monotasks
    busy = {key: (s.integral(0.0, end), s.busy(end), s.peak) for key, s in f.busy.items()}
    rt_util = {}
    for rtype in RTYPES:
        workers = sorted(w for (w, r) in f.busy if r == rtype)
        cap = sum(f.capacity(w, rtype) for w in workers)
        integral = busy_s = peak = 0.0
        for w in workers:
            w_integral, w_busy, w_peak = busy[(w, rtype)]
            integral += w_integral
            busy_s += w_busy
            peak = max(peak, w_peak)
        summed = _sum_series([f.busy[(w, rtype)].bins(width, end) for w in workers])
        rt_util[rtype] = {
            "capacity": cap,
            "busy_seconds": busy_s,
            "active_mean": integral / end if end > 0 else 0.0,
            "mean": integral / (cap * end) if cap and end > 0 else 0.0,
            "worker_peak_active": peak,
            "series": [x / cap for x in summed] if cap else summed,
        }

    workers_out: dict[str, dict] = {}
    for (w, rtype) in sorted(f.busy):
        w_integral, w_busy, w_peak = busy[(w, rtype)]
        workers_out.setdefault(str(w), {})[rtype] = {
            "capacity": f.capacity(w, rtype),
            "busy_seconds": w_busy,
            "mean_active": w_integral / end if end > 0 else 0.0,
            "peak_active": w_peak,
        }

    queues = {}
    for rtype in RTYPES:
        workers = sorted(w for (w, r) in f.queue if r == rtype)
        depth = _gauge_summary([f.queue[(w, rtype)][0] for w in workers], width, end)
        mb = _gauge_summary([f.queue[(w, rtype)][1] for w in workers], width, end)
        queues[rtype] = {
            "depth_mean": depth["mean"],
            "depth_worker_peak": depth["peak"],
            "depth_series": depth["series"],
            "mb_mean": mb["mean"],
            "mb_worker_peak": mb["peak"],
            "mb_series": mb["series"],
        }

    rep, rec_ = f.repair_times, f.recovery_times
    return {
        "sim_end": end,
        "engine_events": events,
        "counters": dict(f.counters),
        "utilization": rt_util,
        "workers": workers_out,
        "queues": queues,
        "admission_queue": _gauge_summary([f.admission_q], width, end),
        "running_jobs": _gauge_summary([f.running_jobs], width, end),
        "alloc_latency": {r: _histogram(f.alloc[r], LATENCY_BOUNDS) for r in RTYPES},
        "admission_wait": _histogram(f.admission_wait, JCT_BOUNDS),
        "jct": f.jct_hist.as_dict(),
        "faults": {
            "repair_count": len(rep),
            "repair_mean_s": sum(rep) / len(rep) if rep else 0.0,
            "repair_max_s": max(rep) if rep else 0.0,
            "recovery_count": len(rec_),
            "recovery_mean_s": sum(rec_) / len(rec_) if rec_ else 0.0,
            "recovery_max_s": max(rec_) if rec_ else 0.0,
            "wasted_work_mb": f.counters["wasted_work_mb"],
        },
    }


def _histogram(samples, bounds) -> dict:
    hist = StreamingHistogram(bounds)
    for v in samples:
        hist.observe(v)
    return hist.as_dict()


def _gauge_summary(series: list[StepSeries], width: float, end: float) -> dict:
    """Summed mean and bins of ``series`` over ``[0, end)``, and their
    largest peak (``0.0`` if none rose above 0: an idle count prints a float)."""
    return {
        "mean": sum(s.integral(0.0, end) for s in series) / end if end > 0 else 0.0,
        "peak": max([0.0, *(s.peak for s in series)]),
        "series": _sum_series([s.bins(width, end) for s in series]),
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
    tel._seam = _rec.attach_telemetry(tel)
    TELEMETRY = tel
    return TELEMETRY


def disable() -> Optional[TelemetryCollector]:
    """Uninstall the global collector and return it (None if not enabled);
    its current unit ends on the way out.  It keeps reading the seam it
    was attached to."""
    global TELEMETRY
    tel, TELEMETRY = TELEMETRY, None
    if tel is not None:
        _rec.detach_telemetry(tel)
    return tel
