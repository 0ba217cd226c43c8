"""Prometheus text exposition of a telemetry summary (``tel.summary()``).

Two products, both plain text in the Prometheus exposition format (the
``# HELP`` / ``# TYPE`` dialect every scraper and ``promtool`` accepts):

* :func:`render_prom` / :func:`write_prom` — one **snapshot-at-end**
  document: counters, utilization/queue gauges, and the classic-histogram
  expansion (cumulative ``le`` buckets + ``_sum`` + ``_count``) of the
  allocation-latency / admission-wait / JCT histograms, labelled by
  ``{unit, resource, worker}``.
* :func:`write_prom_series` — **per-interval scrape files**
  (``scrape_00000.prom`` …), one per resampling interval, each holding the
  cluster gauges as they stood during that interval.  Replaying them in
  order through a scraper reproduces the run as a live time series.

:func:`validate_prom` is the line-format checker the CI smoke job and
``tests/obs`` run over every emitted file: metric-name and label syntax,
sample-line shape, HELP/TYPE presence, and histogram bucket monotonicity.

Both render from the dict :meth:`~repro.obs.telemetry.TelemetryCollector.\
summary` returns, the one ``telemetry.json`` and the dashboard show —
simulation state, no wall-clock time, so the emitted text is deterministic
and diffable.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable

from .telemetry import RTYPES

__all__ = [
    "render_prom", "write_prom", "write_prom_series",
    "render_attr_prom", "write_attr_prom", "validate_prom",
]

_PREFIX = "ursa"


def _esc(value: str) -> str:
    return (
        str(value).replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")
    )


def _labels(**kv) -> str:
    inner = ",".join(f'{k}="{_esc(v)}"' for k, v in kv.items() if v is not None)
    return "{" + inner + "}" if inner else ""


def _num(v) -> str:
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


class _Doc:
    """Accumulates families so HELP/TYPE appear once per metric name."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._seen: set[str] = set()

    def family(self, name: str, mtype: str, help_text: str) -> None:
        if name in self._seen:
            return
        self._seen.add(name)
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {mtype}")

    def sample(self, name: str, value, **labels) -> None:
        self.lines.append(f"{name}{_labels(**labels)} {_num(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


#: counter-key -> (metric suffix, help) for the plain event counters
_COUNTER_METRICS = {
    "grants": ("monotask_grants_total", "Resource grants issued (bypass lane included)"),
    "bypass_grants": ("monotask_bypass_grants_total", "Grants through the small-network bypass lane"),
    "releases": ("monotask_releases_total", "Grants released by normal completion"),
    "aborts": ("monotask_aborts_total", "Grants torn down by the fault layer"),
    "queue_pushes": ("queue_pushes_total", "Monotasks pushed into worker queues"),
    "queue_pops": ("queue_pops_total", "Monotasks popped from worker queues"),
    "queue_evicted": ("queue_evictions_total", "Monotasks evicted from worker queues by faults"),
    "jobs_submitted": ("jobs_submitted_total", "Jobs submitted to admission"),
    "jobs_admitted": ("jobs_admitted_total", "Jobs admitted (memory reserved)"),
    "jobs_started": ("jobs_started_total", "Job managers started"),
    "jobs_completed": ("jobs_completed_total", "Jobs completed successfully"),
    "jobs_failed": ("jobs_failed_total", "Jobs failed (retry budget or doomed while waiting)"),
    "sched_ticks": ("sched_ticks_total", "Batched scheduling rounds executed"),
    "tasks_assigned": ("tasks_assigned_total", "Tasks placed by Algorithm 1"),
    "retries": ("task_retries_total", "Task retry attempts charged"),
    "monotasks_lost": ("monotasks_lost_total", "Monotasks lost to faults"),
    "worker_down": ("worker_down_total", "Worker crash/blackout events"),
    "worker_up": ("worker_up_total", "Worker rejoin events"),
    "wasted_work_mb": ("wasted_work_mb_total", "Input MB of lost work that must be re-executed"),
}

_HIST_HELP = {
    "alloc_latency_seconds": "Queue-push to resource-grant latency per monotask",
    "admission_wait_seconds": "Job submit to admission wait",
    "jct_seconds": "Job completion time",
}


def _emit_hist(doc: _Doc, name: str, hist: dict, **labels) -> None:
    full = f"{_PREFIX}_{name}"
    doc.family(full, "histogram", _HIST_HELP.get(name, name))
    for bound, running in hist["buckets"]:
        doc.sample(f"{full}_bucket", running, **labels, le=_num(bound))
    doc.sample(f"{full}_bucket", hist["count"], **labels, le="+Inf")
    doc.sample(f"{full}_sum", hist["sum"], **labels)
    doc.sample(f"{full}_count", hist["count"], **labels)


def render_prom(summary: dict) -> str:
    """Render a ``tel.summary()`` as one exposition-format document."""
    doc = _Doc()
    units = summary["units"]
    for label in sorted(units):
        _render_unit(doc, label, units[label])
    return doc.text()


def _render_unit(doc: _Doc, unit: str, s: dict) -> None:
    """One unit's families, rendered from its summary."""
    doc.family(f"{_PREFIX}_sim_end_seconds", "gauge", "Final simulation clock of the unit")
    doc.sample(f"{_PREFIX}_sim_end_seconds", s["sim_end"], unit=unit)
    doc.family(f"{_PREFIX}_engine_events_total", "counter", "Simulation events fired")
    doc.sample(f"{_PREFIX}_engine_events_total", s["engine_events"], unit=unit)

    for key, (suffix, help_text) in _COUNTER_METRICS.items():
        full = f"{_PREFIX}_{suffix}"
        doc.family(full, "counter", help_text)
        doc.sample(full, s["counters"][key], unit=unit)

    doc.family(f"{_PREFIX}_resource_capacity", "gauge",
               "Total concurrency slots per resource across live workers")
    doc.family(f"{_PREFIX}_utilization_mean", "gauge",
               "Time-weighted mean utilization (active / capacity) over the run")
    doc.family(f"{_PREFIX}_busy_seconds_total", "counter",
               "Exact busy time integrated from grant/release edges")
    for rtype in RTYPES:
        util = s["utilization"][rtype]
        doc.sample(f"{_PREFIX}_resource_capacity", util["capacity"],
                   unit=unit, resource=rtype)
        doc.sample(f"{_PREFIX}_utilization_mean", util["mean"],
                   unit=unit, resource=rtype)
        doc.sample(f"{_PREFIX}_busy_seconds_total", util["busy_seconds"],
                   unit=unit, resource=rtype)

    doc.family(f"{_PREFIX}_worker_busy_seconds_total", "counter",
               "Per-worker exact busy time per resource")
    for w, per_rtype in s["workers"].items():
        for rtype, d in per_rtype.items():
            doc.sample(f"{_PREFIX}_worker_busy_seconds_total", d["busy_seconds"],
                       unit=unit, worker=w, resource=rtype)

    doc.family(f"{_PREFIX}_queue_depth_mean", "gauge",
               "Time-weighted mean queued monotasks across workers")
    doc.family(f"{_PREFIX}_queued_mb_mean", "gauge",
               "Time-weighted mean queued input MB across workers")
    for rtype in RTYPES:
        q = s["queues"][rtype]
        doc.sample(f"{_PREFIX}_queue_depth_mean", q["depth_mean"], unit=unit, resource=rtype)
        doc.sample(f"{_PREFIX}_queued_mb_mean", q["mb_mean"], unit=unit, resource=rtype)

    doc.family(f"{_PREFIX}_admission_queue_mean", "gauge",
               "Time-weighted mean admission-queue length")
    doc.sample(f"{_PREFIX}_admission_queue_mean", s["admission_queue"]["mean"], unit=unit)
    doc.family(f"{_PREFIX}_running_jobs_mean", "gauge",
               "Time-weighted mean concurrently-running jobs")
    doc.sample(f"{_PREFIX}_running_jobs_mean", s["running_jobs"]["mean"], unit=unit)
    doc.family(f"{_PREFIX}_running_jobs_peak", "gauge", "Peak concurrently-running jobs")
    doc.sample(f"{_PREFIX}_running_jobs_peak", s["running_jobs"]["peak"], unit=unit)

    for rtype in RTYPES:
        _emit_hist(doc, "alloc_latency_seconds", s["alloc_latency"][rtype],
                   unit=unit, resource=rtype)
    _emit_hist(doc, "admission_wait_seconds", s["admission_wait"], unit=unit)
    _emit_hist(doc, "jct_seconds", s["jct"], unit=unit)

    doc.family(f"{_PREFIX}_fault_repair_seconds_mean", "gauge",
               "Mean worker downtime (blackout to rejoin)")
    doc.sample(f"{_PREFIX}_fault_repair_seconds_mean", s["faults"]["repair_mean_s"], unit=unit)
    doc.family(f"{_PREFIX}_fault_recovery_seconds_mean", "gauge",
               "Mean time from a fault to its last restarted task re-completing")
    doc.sample(f"{_PREFIX}_fault_recovery_seconds_mean", s["faults"]["recovery_mean_s"],
               unit=unit)


def render_attr_prom(attr: dict) -> str:
    """Exposition-format gauges for a critical-path attribution result.

    ``attr`` is the document returned by
    :func:`repro.obs.attribution.attribute`.  Three gauge families, all
    derived from the deterministic event stream (so diffable across runs):

    * ``ursa_jct_ledger_seconds{unit, category}`` — the per-unit JCT ledger
      totals; summed over categories they equal the unit's total JCT.
    * ``ursa_idle_blame_seconds{unit, resource, cause}`` — idle
      slot-seconds charged to each cause by the blame sweep.
    * ``ursa_idle_capacity_seconds{unit, resource}`` — total slot-seconds
      the blame sweep partitioned (busy + all idle causes).
    """
    from .attribution import CATEGORIES, IDLE_CAUSES
    from .attribution import RTYPES as ATTR_RTYPES

    doc = _Doc()
    doc.family(f"{_PREFIX}_jct_ledger_seconds", "gauge",
               "Critical-path JCT ledger total per category (sums to the "
               "unit's total JCT)")
    doc.family(f"{_PREFIX}_idle_blame_seconds", "gauge",
               "Idle slot-seconds charged to each cause per resource")
    doc.family(f"{_PREFIX}_idle_capacity_seconds", "gauge",
               "Total slot-seconds partitioned by the idle blame sweep")
    for unit in sorted(attr["units"]):
        u = attr["units"][unit]
        for cat in CATEGORIES:
            doc.sample(f"{_PREFIX}_jct_ledger_seconds",
                       u["ledger_totals"][cat], unit=unit, category=cat)
        idle = u["idle"]
        for rtype in ATTR_RTYPES:
            for cause in IDLE_CAUSES:
                doc.sample(f"{_PREFIX}_idle_blame_seconds",
                           idle["totals"][rtype][cause],
                           unit=unit, resource=rtype, cause=cause)
            doc.sample(f"{_PREFIX}_idle_capacity_seconds",
                       idle["capacity_seconds"][rtype],
                       unit=unit, resource=rtype)
    return doc.text()


def _write(path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def write_attr_prom(attr: dict, path) -> Path:
    """Write :func:`render_attr_prom` output; returns the path."""
    return _write(path, render_attr_prom(attr))


def write_prom(summary: dict, path) -> Path:
    """Write the snapshot-at-end exposition document of a
    ``tel.summary()``; returns the path."""
    return _write(path, render_prom(summary))


#: (gauge, what its mean during the interval is of) in each scrape file
_SCRAPE_GAUGES = (
    ("utilization", "utilization"),
    ("queue_depth", "queued monotasks"),
    ("queued_mb", "queued input MB"),
    ("admission_queue", "admission-queue length"),
    ("running_jobs", "running jobs"),
)


def write_prom_series(summary: dict, out_dir) -> list[Path]:
    """Write one scrape file per resampling interval of a ``tel.summary()``
    into ``out_dir``.

    Each ``scrape_NNNNN.prom`` holds every unit's cluster gauges
    (utilization, queue depth, queued MB, admission queue, running jobs)
    as they stood during interval ``N``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    interval = summary["interval"]
    series: list[tuple[str, list]] = []  # (metric-line prefix, series), in file order
    for unit, s in sorted(summary["units"].items()):
        for rtype in RTYPES:
            q = s["queues"][rtype]
            for name, values in (("utilization", s["utilization"][rtype]["series"]),
                                 ("queue_depth", q["depth_series"]),
                                 ("queued_mb", q["mb_series"])):
                series.append((f"{_PREFIX}_{name}{_labels(unit=unit, resource=rtype)}", values))
        for name in ("admission_queue", "running_jobs"):
            series.append((f"{_PREFIX}_{name}{_labels(unit=unit)}", s[name]["series"]))
    header = [line for name, what in _SCRAPE_GAUGES for line in (
        f"# HELP {_PREFIX}_{name} Mean {what} during this interval",
        f"# TYPE {_PREFIX}_{name} gauge",
    )]
    paths: list[Path] = []
    for k in range(max((len(values) for _, values in series), default=0)):
        lines = header + [f"# interval {k} [{k * interval:g}s, {(k + 1) * interval:g}s)"]
        lines += [f"{prefix} {_num(values[k])}" for prefix, values in series if k < len(values)]
        paths.append(_write(out_dir / f"scrape_{k:05d}.prom", "\n".join(lines) + "\n"))
    return paths


# ----------------------------------------------------------------------
# validation (used by the CI smoke job and tests)
# ----------------------------------------------------------------------
_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN))$"
)
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def validate_prom(text: str) -> list[str]:
    """Check exposition-format text line by line.  Returns error strings —
    empty means valid.  Checks: HELP/TYPE syntax, sample-line shape, label
    syntax, TYPE declared before a family's samples, and cumulative-bucket
    monotonicity / ``+Inf``-equals-``_count`` for histograms."""
    errs: list[str] = []
    typed: dict[str, str] = {}
    # (base_name, label-set-minus-le) -> [(le, value), ...] and counts
    buckets: dict[tuple, list[tuple[float, float]]] = {}
    counts: dict[tuple, float] = {}

    for i, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3 or not _NAME_RE.fullmatch(parts[2]):
                    errs.append(f"line {i}: malformed {parts[1]} comment")
                elif parts[1] == "TYPE":
                    if len(parts) < 4 or parts[3] not in (
                        "counter", "gauge", "histogram", "summary", "untyped"
                    ):
                        errs.append(f"line {i}: unknown TYPE {line!r}")
                    else:
                        typed[parts[2]] = parts[3]
            continue  # other comments are allowed
        m = _SAMPLE_RE.match(line)
        if m is None:
            errs.append(f"line {i}: malformed sample {line!r}")
            continue
        name, labels = m.group("name"), m.group("labels")
        pairs: dict[str, str] = {}
        if labels:
            for pair in _split_labels(labels):
                if not _LABEL_RE.match(pair):
                    errs.append(f"line {i}: malformed label {pair!r}")
                else:
                    k, v = pair.split("=", 1)
                    pairs[k] = v[1:-1]
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                base = name[: -len(suffix)]
                break
        if base not in typed:
            errs.append(f"line {i}: sample {name!r} before any TYPE declaration")
            continue
        if typed.get(base) == "histogram":
            key_labels = tuple(sorted((k, v) for k, v in pairs.items() if k != "le"))
            value = float(m.group("value"))
            if name.endswith("_bucket"):
                le = pairs.get("le")
                if le is None:
                    errs.append(f"line {i}: histogram bucket without le label")
                else:
                    buckets.setdefault((base, key_labels), []).append(
                        (float("inf") if le == "+Inf" else float(le), value)
                    )
            elif name.endswith("_count"):
                counts[(base, key_labels)] = value

    for key, bs in buckets.items():
        les = [le for le, _ in bs]
        vals = [v for _, v in bs]
        if les != sorted(les):
            errs.append(f"{key[0]}: bucket le bounds not sorted for {dict(key[1])}")
        if vals != sorted(vals):
            errs.append(f"{key[0]}: bucket counts not cumulative for {dict(key[1])}")
        if not les or les[-1] != float("inf"):
            errs.append(f"{key[0]}: missing +Inf bucket for {dict(key[1])}")
        elif key in counts and counts[key] != vals[-1]:
            errs.append(f"{key[0]}: _count != +Inf bucket for {dict(key[1])}")
    return errs


def _split_labels(labels: str) -> Iterable[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    out, cur, in_q, esc = [], [], False, False
    for ch in labels:
        if esc:
            cur.append(ch)
            esc = False
            continue
        if ch == "\\":
            cur.append(ch)
            esc = True
            continue
        if ch == '"':
            in_q = not in_q
            cur.append(ch)
            continue
        if ch == "," and not in_q:
            out.append("".join(cur))
            cur = []
            continue
        cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out
