"""Live ASCII dashboard over the telemetry collector.

Headless environment, so "live" means: every time a simulation unit ends
(the seam moves to its next unit, or telemetry is disabled, and the
collector's ``on_unit_end`` callback fires), a panel for that unit is
printed — utilization sparklines per resource, queue-depth and gauge
strips, the latency table, and a counters line.  ``python -m
repro.experiments --dashboard`` wires this up; the same renderer produces
the end-of-run ``dashboard.txt`` artifact from the run's one
``tel.summary()``.

The dashboard is a pure *observer*: it renders unit summaries
(:func:`~repro.obs.telemetry.unit_summary`) and never touches the
simulation, so enabling it cannot perturb experiment results (the
bit-identity tests in ``tests/obs`` cover telemetry as a whole).
"""

from __future__ import annotations

import sys
from typing import Optional, TextIO

from ..metrics.asciichart import sparkline
from ..metrics.report import format_latency_rows
from .latency import Dist
from .telemetry import RTYPES, TelemetryCollector

__all__ = [
    "render_unit", "render_dashboard", "render_blame", "attach_live",
    "PANEL_WIDTH",
]

#: sparkline strips are resampled down to this many columns
PANEL_WIDTH = 64
_TOP = "┌" + "─" * (PANEL_WIDTH + 14) + "┐"
_BOTTOM = "└" + "─" * (PANEL_WIDTH + 14) + "┘"


def _resample(series: list, width: int = PANEL_WIDTH) -> list[float]:
    """Average consecutive chunks so long series fit a terminal row."""
    n = len(series)
    if n <= width:
        return [float(v) for v in series]
    out = []
    for k in range(width):
        lo = k * n // width
        hi = max((k + 1) * n // width, lo + 1)
        chunk = series[lo:hi]
        out.append(sum(chunk) / len(chunk))
    return out


def _dist_from_hist(d: dict) -> Optional[Dist]:
    """Histogram snapshot (``StreamingHistogram.as_dict``) → ``Dist`` row.

    Percentiles are the histogram's interpolated estimates, which is what a
    dashboard wants (exact samples are the trace recorder's job).
    """
    if not d["count"]:
        return None
    return Dist(count=d["count"], mean=d["mean"], p25=d["p25"], p50=d["p50"],
                p75=d["p75"], p95=d["p95"], p99=d["p99"], max=d["max"])


def _strip(label: str, series: list, peak: float, mean: float,
           hi: Optional[float], fmt: str = "{:.2f}") -> str:
    spark = sparkline(_resample(series), 0.0, hi)
    return (f"  {label:>12s} |{spark}| "
            f"mean {fmt.format(mean)}  peak {fmt.format(peak)}")


def render_unit(label: str, s: dict) -> str:
    """One dashboard panel from unit ``label``'s summary."""
    c = s["counters"]
    lines = [_TOP, f"  unit {label}  t={s['sim_end']:.1f}s  events={s['engine_events']}",
             "", "  utilization (fraction of concurrency limit)"]
    for rtype in RTYPES:
        util = s["utilization"][rtype]
        # network bypass runs outside the slot limit, so cap the scale at
        # the observed max rather than clamping >1.0 samples away
        peak = max(util["series"], default=0.0)
        lines.append(_strip(rtype, util["series"], peak=peak,
                            mean=util["mean"], hi=max(1.0, peak)))
    lines += ["", "  queue depth (monotasks, summed over workers)"]
    for rtype in RTYPES:
        q = s["queues"][rtype]
        lines.append(_strip(rtype, q["depth_series"], peak=q["depth_worker_peak"],
                            mean=q["depth_mean"], hi=None, fmt="{:.1f}"))
    lines.append("")
    for name, key in (("admission q", "admission_queue"), ("running jobs", "running_jobs")):
        g = s[key]
        lines.append(_strip(name, g["series"], peak=g["peak"], mean=g["mean"],
                            hi=None, fmt="{:.1f}"))
    lines.append("")
    stats = {
        "alloc_latency": {
            r: d for r in RTYPES
            if (d := _dist_from_hist(s["alloc_latency"][r])) is not None
        },
        "admission_wait": _dist_from_hist(s["admission_wait"]),
    }
    table = format_latency_rows(stats, title="  latency (histogram estimates)")
    lines.extend("  " + ln for ln in table.splitlines())
    lines.append("")
    jct = s["jct"]
    lines.append(
        f"  jobs: {c['jobs_completed']}/{c['jobs_submitted']} done"
        f" ({c['jobs_failed']} failed)  jct p50 {jct['p50']:.1f}s"
        f" p95 {jct['p95']:.1f}s"
    )
    lines.append(
        f"  grants {c['grants']} (bypass {c['bypass_grants']})"
        f"  releases {c['releases']}  aborts {c['aborts']}"
        f"  evicted {c['queue_evicted']}"
    )
    if c["worker_down"] or c["retries"] or c["monotasks_lost"]:
        f = s["faults"]
        lines.append(
            f"  faults: down {c['worker_down']}  retries {c['retries']}"
            f"  mt lost {c['monotasks_lost']}"
            f"  wasted {c['wasted_work_mb']:.0f} MB"
            f"  recovery mean {f['recovery_mean_s']:.1f}s"
        )
    if c["jobs_shed"] or c["autoscale_up"] or c["autoscale_down"]:
        lines.append(
            f"  service: shed {c['jobs_shed']}"
            f"  scale-ups {c['autoscale_up']}"
            f"  scale-downs {c['autoscale_down']}"
        )
    lines.append(_BOTTOM)
    return "\n".join(lines)


def render_dashboard(summary: dict) -> str:
    """Panels for every unit of a ``tel.summary()``."""
    panels = [render_unit(label, s) for label, s in summary["units"].items()]
    if not panels:
        return "(no telemetry units recorded)"
    return "\n".join(panels)


def render_blame(unit_label: str, unit_attr: dict, top: int = 3) -> str:
    """Idle-time blame panel for one unit of an attribution result.

    ``unit_attr`` is one value of ``attribute(events)["units"]``.  Shows,
    per resource, the top-``top`` causes idle slot-seconds were charged to
    (with their share of total capacity), plus the cluster-level JCT ledger
    headline — which phase dominated completion time across the unit's
    jobs.  Pure renderer over the attribution dict; no simulation state.
    """
    idle = unit_attr["idle"]
    lines = [_TOP, f"  idle-time blame — unit {unit_label}"]
    if not idle["per_worker"]:
        lines.append("  (no Ursa workers in this unit: executor-model "
                     "baseline — see JCT ledger)")
    for rtype in ("cpu", "network", "disk"):
        causes = idle["totals"].get(rtype, {})
        cap = idle["capacity_seconds"].get(rtype, 0.0)
        ranked = sorted(causes.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
        parts = []
        for cause, secs in ranked:
            share = secs / cap if cap > 0 else 0.0
            parts.append(f"{cause} {secs:.1f}s ({share:.0%})")
        if parts:
            lines.append(f"  {rtype:>8s}: " + "  ".join(parts))
    totals = unit_attr.get("ledger_totals", {})
    ranked = sorted(
        ((k, v) for k, v in totals.items() if v > 0),
        key=lambda kv: (-kv[1], kv[0]),
    )[:top]
    if ranked:
        lines.append(
            "  jct ledger: "
            + "  ".join(f"{k} {v:.1f}s" for k, v in ranked)
        )
    lines.append(_BOTTOM)
    return "\n".join(lines)


def attach_live(tel: TelemetryCollector, stream: Optional[TextIO] = None) -> None:
    """Print each unit's panel as soon as the unit ends."""
    out = stream if stream is not None else sys.stdout

    def _on_unit_end(label: str, s: dict) -> None:
        print(render_unit(label, s), file=out, flush=True)

    tel.on_unit_end = _on_unit_end
