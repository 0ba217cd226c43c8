"""SLO report: warmup-excluded latency/goodput/shed metrics for one run.

The report a service operator reads (see docs/OPERATIONS.md for the
field-by-field guide):

* the **measurement window** is ``[warmup, horizon]`` by *arrival* time —
  everything arriving during warmup is excluded, so cold-start JCTs never
  pollute the percentiles, while window jobs that finish during the drain
  grace still count;
* **latency** (p50/p99 JCT) and **admission wait** are summarized with
  :class:`repro.obs.latency.Dist` — the same pure-python, numpy-matching
  percentile machinery the tracing layer uses;
* **goodput** is window completions per window second, and **shed rate**
  the fraction of window arrivals rejected by backpressure;
* the **counts** section carries the whole-run accounting identity
  ``generated = shed + completed + failed + in_flight`` (pinned by
  ``tests/service``).

Reports are plain dicts of floats/ints/strings, so they pickle and JSON
canonically: the serial and parallel harness paths produce byte-identical
``slo_report.json`` artifacts.  :func:`validate_report` is the schema
gate ``make service-smoke`` and the CLI's ``--service-out`` writer run.
"""

from __future__ import annotations

from ..obs.latency import dist

__all__ = [
    "SCHEMA", "build_report", "assemble_report", "validate_report",
    "format_service_rows", "DISABLED_AUTOSCALER",
]

SCHEMA = "repro.service/slo-report/v1"

#: autoscaler section of a run with elasticity off (fixed fleet)
DISABLED_AUTOSCALER = {
    "enabled": False,
    "samples": 0,
    "scale_ups": 0,
    "scale_downs": 0,
    "min_active": 0,
    "max_active": 0,
    "final_active": 0,
    "mean_active": 0.0,
}


def build_report(driver) -> dict:
    """Assemble the SLO report from a finished :class:`ServiceDriver`."""
    jobs = {j.job_id: j for j in driver.system.jobs}
    if driver.autoscaler is not None:
        auto = driver.autoscaler.stats()
    else:
        auto = dict(DISABLED_AUTOSCALER)
        auto["min_active"] = auto["max_active"] = auto["final_active"] = len(
            driver.system.workers
        )
        auto["mean_active"] = float(len(driver.system.workers))
    return assemble_report(
        records=driver.records,
        jobs=jobs,
        cfg=driver.cfg,
        process=driver.process,
        autoscaler=auto,
        peak_queue=driver.peak_queue,
        seed=driver.seed,
    )


def assemble_report(records, jobs, cfg, process, autoscaler, peak_queue, seed) -> dict:
    """Pure assembly over the driver's ledger (unit-testable in isolation).

    ``records`` are :class:`_ArrivalRecord`-shaped objects; ``jobs`` maps
    job id → a Job-shaped object exposing ``done`` / ``failed`` / ``jct``
    / ``submit_time`` / ``admit_time``.
    """
    completed = failed = in_flight = shed = 0
    for r in records:
        if r.shed:
            shed += 1
            continue
        job = jobs[r.job_id]
        if job.done:
            completed += 1
        elif job.failed:
            failed += 1
        else:
            in_flight += 1

    w0, w1 = cfg.warmup, cfg.horizon
    window = [r for r in records if w0 <= r.arrival.t <= w1]
    win_shed = sum(1 for r in window if r.shed)
    win_jcts = []
    win_waits = []
    win_completed = 0
    for r in window:
        if r.shed:
            continue
        job = jobs[r.job_id]
        if job.done and job.jct is not None:
            win_completed += 1
            win_jcts.append(job.jct)
        if job.admit_time is not None:
            win_waits.append(job.admit_time - job.submit_time)
    span = w1 - w0
    jct_dist = dist(win_jcts, empty_zero=True)
    wait_dist = dist(win_waits, empty_zero=True)

    return {
        "schema": SCHEMA,
        "arrival": {
            "process": process.name,
            "rate_per_s": process.rate_per_s,
            "n_tenants": process.n_tenants,
            "horizon_s": cfg.horizon,
            "warmup_s": cfg.warmup,
            "drain_grace_s": cfg.drain_grace,
            "seed": seed,
        },
        "counts": {
            "generated": len(records),
            "submitted": len(records) - shed,
            "shed": shed,
            "completed": completed,
            "failed": failed,
            "in_flight": in_flight,
            "distinct_tenants": len({r.arrival.tenant for r in records}),
        },
        "backpressure": {
            "queue_limit": cfg.queue_limit,
            "peak_queue": peak_queue,
            "shed_queue_full": sum(
                1 for r in records if r.shed and r.reason == "queue_full"
            ),
            "shed_too_large": sum(
                1 for r in records if r.shed and r.reason == "too_large"
            ),
        },
        "window": {
            "start_s": w0,
            "end_s": w1,
            "generated": len(window),
            "shed": win_shed,
            "completed": win_completed,
            "latency_p50_s": jct_dist.p50,
            "latency_p99_s": jct_dist.p99,
            "admission_wait_p50_s": wait_dist.p50,
            "admission_wait_p99_s": wait_dist.p99,
            "goodput_jobs_per_s": win_completed / span,
            "shed_rate": win_shed / len(window) if window else 0.0,
            "jct": jct_dist.row(),
            "admission_wait": wait_dist.row(),
        },
        "autoscaler": dict(autoscaler),
    }


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------
_SECTIONS = {
    "arrival": ("process", "rate_per_s", "n_tenants", "horizon_s",
                "warmup_s", "drain_grace_s", "seed"),
    "counts": ("generated", "submitted", "shed", "completed", "failed",
               "in_flight", "distinct_tenants"),
    "backpressure": ("queue_limit", "peak_queue", "shed_queue_full",
                     "shed_too_large"),
    "window": ("start_s", "end_s", "generated", "shed", "completed",
               "latency_p50_s", "latency_p99_s", "admission_wait_p50_s",
               "admission_wait_p99_s", "goodput_jobs_per_s", "shed_rate",
               "jct", "admission_wait"),
    "autoscaler": ("enabled", "samples", "scale_ups", "scale_downs",
                   "min_active", "max_active", "final_active",
                   "mean_active"),
}

_DIST_KEYS = ("count", "mean", "p25", "p50", "p75", "p95", "p99", "max")


def validate_report(report: dict) -> list[str]:
    """Schema + invariant check; returns a list of violations (empty = OK)."""
    errs: list[str] = []
    if not isinstance(report, dict):
        return ["report is not a dict"]
    if report.get("schema") != SCHEMA:
        errs.append(f"schema is {report.get('schema')!r}, expected {SCHEMA!r}")
    for section, keys in _SECTIONS.items():
        node = report.get(section)
        if not isinstance(node, dict):
            errs.append(f"missing section {section!r}")
            continue
        for key in keys:
            if key not in node:
                errs.append(f"{section}.{key} missing")
    if errs:
        return errs
    for name in ("jct", "admission_wait"):
        row = report["window"][name]
        missing = [k for k in _DIST_KEYS if k not in row]
        if missing:
            errs.append(f"window.{name} missing {missing}")
    c = report["counts"]
    if c["generated"] != c["shed"] + c["completed"] + c["failed"] + c["in_flight"]:
        errs.append(
            "accounting identity violated: generated != "
            "shed + completed + failed + in_flight"
        )
    if c["submitted"] != c["generated"] - c["shed"]:
        errs.append("counts.submitted != generated - shed")
    w = report["window"]
    if not 0.0 <= w["shed_rate"] <= 1.0:
        errs.append(f"shed_rate {w['shed_rate']} outside [0, 1]")
    if w["latency_p50_s"] > w["latency_p99_s"] + 1e-12:
        errs.append("latency p50 > p99")
    if w["goodput_jobs_per_s"] < 0:
        errs.append("negative goodput")
    a = report["autoscaler"]
    if a["enabled"] and not a["min_active"] <= a["max_active"]:
        errs.append("autoscaler min_active > max_active")
    return errs


def format_service_rows(payloads: dict[str, dict], title: str) -> str:
    """One table row per sweep unit (the reduce-side SLO curve)."""
    header = (
        f"{'unit':<22} {'gen':>5} {'shed%':>6} {'p50 s':>7} {'p99 s':>7} "
        f"{'adm p99':>8} {'goodput/s':>10} {'workers':>8}"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for key, rep in payloads.items():
        w = rep["window"]
        a = rep["autoscaler"]
        lines.append(
            f"{key:<22} {rep['counts']['generated']:>5} "
            f"{100.0 * w['shed_rate']:>5.1f}% "
            f"{w['latency_p50_s']:>7.2f} {w['latency_p99_s']:>7.2f} "
            f"{w['admission_wait_p99_s']:>8.2f} "
            f"{w['goodput_jobs_per_s']:>10.3f} "
            f"{a['mean_active']:>8.2f}"
        )
    return "\n".join(lines)
