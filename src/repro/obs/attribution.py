"""Why-slow attribution: JCT ledgers and the idle-time blame ledger.

Two products, both derived offline from a recorded trace (analysis
never touches the hot path, so enabling it cannot perturb metrics):

* **Per-job JCT ledger** — :func:`attribute` folds each job's critical-path
  segments (:mod:`repro.obs.critpath`) into a fixed-category ledger whose
  entries sum to the job's completion time *by construction*: the segments
  tile ``[submit, finish]``, so the sum telescopes to JCT exactly (up to
  float associativity — the regression gate allows 1e-9 relative error).
* **Idle-time blame ledger** — for every Ursa worker and resource, every
  idle slot-second of the run (from the worker's ``worker_spec`` row on;
  accrued by the unit's one fold, :func:`~repro.obs.critpath.fold_rows`,
  which telemetry and the latency tables share) is classified by *why*
  the slot sat idle:
  ``fault_down`` (worker offline), ``blocked_policy`` (runnable work existed
  somewhere in the cluster but capping/blocking or placement kept it off
  this slot), ``admission_gated`` (no runnable work, but jobs were waiting
  at the memory-gated admission controller), or ``no_work`` (nothing to
  run anywhere).  This is the paper's Obj-2 waste metric made first-class:
  the ledger shows directly how much executor-style idleness each policy
  leaves behind.

The result dict is JSON-ready; :func:`render_json` serializes it with
sorted keys so the artifact is byte-identical for identical event streams
(serial vs. parallel runs, optimized vs. legacy tick), and
:func:`attribution_digest` pins that invariant in tests and CI.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .critpath import IDLE_CAUSES, RTYPES, UnitTrace, critical_path
from .recorder import EventView

__all__ = [
    "CATEGORIES", "IDLE_CAUSES", "RTYPES",
    "attribute", "attribute_unit", "idle_blame",
    "render_json", "attribution_digest", "write_attribution", "validate",
    "top_jobs", "sum_error",
]

#: every ledger key, in report order; absent phases are exact 0.0
CATEGORIES = (
    "admission_wait", "jm_startup", "sched_delay",
    "queue_wait_cpu", "queue_wait_network", "queue_wait_disk",
    "compute", "transfer", "disk_io",
    "contention_cpu", "contention_network", "contention_disk",
    "fault_recovery", "execution", "failed", "other",
)

def attribute(events: EventView) -> dict:
    """Full attribution of a trace view (``recorder.events`` or
    :func:`repro.obs.export.read_trace`): ``{"units": {label: ...}}``."""
    units = events.folds()
    return {
        "schema": 1,
        "units": {label: attribute_unit(units[label]) for label in sorted(units)},
    }


def attribute_unit(unit: UnitTrace) -> dict:
    """One unit's attribution: per-job ledgers + the idle blame ledger."""
    jobs = {}
    totals = {c: 0.0 for c in CATEGORIES}
    for jid in sorted(unit.jobs):
        job = unit.jobs[jid]
        if job.finish_t is None:
            continue  # never completed (trace truncated); nothing to ledger
        path = critical_path(unit, job)
        ledger = {c: 0.0 for c in CATEGORIES}
        for seg in path:
            ledger[seg["label"]] += seg["t1"] - seg["t0"]
        for c in CATEGORIES:
            totals[c] += ledger[c]
        jobs[str(jid)] = {
            "name": job.name,
            "submit_t": job.submit_t,
            "finish_t": job.finish_t,
            "jct": job.jct,
            "failed": job.failed,
            "ledger": ledger,
            "critical_path": [
                {k: seg[k] for k in sorted(seg)} for seg in path
            ],
        }
    return {
        "jobs": jobs,
        "ledger_totals": totals,
        "idle": idle_blame(unit),
    }


def sum_error(entry: dict) -> float:
    """Relative error between a job's ledger sum and its JCT."""
    total = sum(entry["ledger"].values())
    jct = entry["jct"] or 0.0
    if jct == 0.0:
        return abs(total)
    return abs(total - jct) / jct


def top_jobs(result: dict, n: int = 10) -> list[tuple[str, str, dict]]:
    """The ``n`` slowest jobs across all units as (unit, job_id, entry)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n!r}")
    rows = [
        (unit_label, jid, entry)
        for unit_label, unit in result["units"].items()
        for jid, entry in unit["jobs"].items()
    ]
    rows.sort(key=lambda r: (-(r[2]["jct"] or 0.0), r[0], int(r[1])))
    return rows[:n]


# ----------------------------------------------------------------------
# idle-time blame ledger
# ----------------------------------------------------------------------
def idle_blame(unit: UnitTrace) -> dict:
    """The unit's idle-blame ledger: every idle slot-second of every Ursa
    worker resource, by cause.

    Returns ``{"per_worker": {w: {rtype: {cause: s}}}, "totals": {rtype:
    {cause: s}}, "capacity_seconds": {rtype: s}, "end_t": t}``.  The fold
    accrued the ledger row by row (:meth:`UnitTrace.accrue`), each worker's
    slots from its ``worker_spec`` row to the unit's last row.  Executor
    baselines never instantiate Workers, so their units report an empty
    ledger — their idleness is visible only through the JCT ledgers.
    """
    return {
        "per_worker": {
            str(w): unit.idle_per_worker[w] for w in sorted(unit.idle_per_worker)
        },
        "totals": unit.idle_totals,
        "capacity_seconds": {
            r: unit.end_t * sum(spec["limits"][r] for spec in unit.workers.values())
            for r in RTYPES
        },
        "end_t": unit.end_t,
    }


# ----------------------------------------------------------------------
# serialization / digests
# ----------------------------------------------------------------------
def render_json(result: dict) -> str:
    """Canonical JSON text: sorted keys, full float precision (the shortest
    round-trip repr), trailing newline — byte-identical for identical event
    streams."""
    return json.dumps(result, sort_keys=True, indent=1) + "\n"


def attribution_digest(result: dict) -> str:
    """sha256 over the canonical JSON — the cross-engine identity pin."""
    return hashlib.sha256(render_json(result).encode()).hexdigest()


def write_attribution(result: dict, path) -> Path:
    """Write the canonical JSON artifact; returns the path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(render_json(result))
    return p


def validate(result: dict, rel_tol: float = 1e-9) -> list[str]:
    """Check the sum-to-JCT identity for every job.  Returns error strings —
    empty means every ledger is exact within ``rel_tol``."""
    errs = []
    for unit_label, unit in result["units"].items():
        for jid, entry in unit["jobs"].items():
            err = sum_error(entry)
            if err > rel_tol:
                errs.append(
                    f"{unit_label} job {jid}: ledger sum off by "
                    f"{err:.3e} (jct={entry['jct']})"
                )
        idle = unit["idle"]
        for r, causes in idle["totals"].items():
            for c, v in causes.items():
                if v < 0:
                    errs.append(f"{unit_label}: negative idle {r}/{c} = {v}")
    return errs
