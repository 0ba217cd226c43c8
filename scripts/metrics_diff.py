#!/usr/bin/env python
"""Telemetry metrics regression gate.

Diffs the telemetry summary of a canonical deterministic run (table2 at
the tiny scale, seed 0) against the committed ``BENCH_metrics.json``
baseline, with per-metric tolerances.  The simulation is bit-deterministic,
so the default tolerance is **zero**: any drift in grants, busy-seconds,
utilization or latency quantiles fails CI until the baseline is
regenerated on purpose.  The same run records a lifecycle trace and gates
the critical-path attribution summary (per-unit JCT ledger totals and the
idle-time blame ledger) under ``attribution.*`` keys, plus two open-loop
fig_service units (stable and overloaded) whose SLO-report scalars are
gated under ``service.*`` keys.

Commands::

    # gate: rerun the canonical experiment and diff against the baseline
    PYTHONPATH=src python scripts/metrics_diff.py check

    # diff a pre-collected candidate file instead of rerunning
    PYTHONPATH=src python scripts/metrics_diff.py check --candidate c.json

    # regenerate the baseline (after an intentional behavior change);
    # --measure-overhead also times telemetry-off vs telemetry-on on a
    # synthetic setting-1 batch and records the overhead
    PYTHONPATH=src python scripts/metrics_diff.py write --measure-overhead

    # dump the candidate metrics without diffing (CI artifact)
    PYTHONPATH=src python scripts/metrics_diff.py dump --out candidate.json

    # validate Prometheus exposition files
    PYTHONPATH=src python scripts/metrics_diff.py validate-prom out/*.prom

Exit status: 0 clean, 1 on any metric outside tolerance (or invalid prom
file), 2 on usage/baseline errors.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import io
import json
import pickle
import sys
import time
from pathlib import Path

DEFAULT_BASELINE = "BENCH_metrics.json"

#: the canonical gate run — small enough for CI, covers both Ursa policies
#: and both executor-model baselines; ``service_units`` adds open-loop
#: fig_service units (one stable, one overloaded) whose SLO reports are
#: gated under ``service.<unit>.*``
CANONICAL = {
    "experiments": ["table2"],
    "scale": "tiny",
    "seed": 0,
    "interval": 1.0,
    "service_units": ["poisson-x1.0", "poisson-x2.0"],
}

TOLERANCE_POLICY = [
    "Tolerance policy: the gate metrics come from a bit-deterministic",
    "simulation, so 'default_rel' is 0.0 — metrics must match the baseline",
    "exactly.  'overrides' maps fnmatch patterns over dotted metric names",
    "to relative tolerances for metrics that are allowed to drift.",
    "The 'wall_clock' section is informational only (host-dependent) and",
    "is never gated; regenerate with 'metrics_diff.py write' after an",
    "intentional behavior change and commit the new baseline.",
]


def _flatten(prefix: str, node, out: dict) -> None:
    if isinstance(node, dict):
        for k, v in node.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix] = node
    # lists (series, buckets) are deliberately skipped: the scalar
    # aggregates already pin them, and flat scalars diff legibly


_GATED_KEYS = (
    "sim_end", "engine_events", "counters", "utilization", "queues",
    "admission_queue.mean", "admission_queue.peak",
    "running_jobs.mean", "running_jobs.peak",
    "alloc_latency", "admission_wait", "jct", "faults",
)


def collect_candidate(spec: dict = CANONICAL) -> dict:
    """Run the canonical experiment with telemetry on; return flat metrics.

    The lifecycle recorder runs alongside telemetry, and a small
    critical-path attribution summary (per-unit JCT ledger totals plus the
    idle-time blame totals) is gated under ``attribution.*`` — the ledgers
    are derived from the same deterministic event stream, so they too must
    match the baseline exactly.
    """
    from repro.experiments import fig_service
    from repro.experiments.common import SCALES
    from repro.experiments.registry import run_all
    from repro.obs import attribution as attr_mod
    from repro.obs import recorder as rec_mod
    from repro.obs import telemetry as tel_mod

    rec = rec_mod.enable()
    tel_mod.enable(interval=spec["interval"])
    service_reports: dict[str, dict] = {}
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            run_all(spec["scale"], only=list(spec["experiments"]), seed=spec["seed"])
            # open-loop service units run outside run_all (they are single
            # units of the fig_service sweep, not the whole experiment);
            # label them the way the runner would so their telemetry and
            # attribution land under fig_service:<key> like everything else
            # (the seam relabels the attached telemetry too)
            for key in spec.get("service_units", ()):
                rec.begin_unit(f"fig_service:{key}")
                service_reports[key] = fig_service.run_unit(
                    SCALES[spec["scale"]], key, seed=spec["seed"]
                )
    finally:
        tel = tel_mod.disable()
        rec_mod.disable()
    summary = tel.summary()

    flat: dict[str, float] = {}
    for unit, s in summary["units"].items():
        picked = {}
        for key in _GATED_KEYS:
            node = s
            for part in key.split("."):
                node = node[part]
            picked[key] = node
        _flatten(unit, picked, flat)
    _flatten("totals", summary["totals"], flat)

    attr = attr_mod.attribute(rec.events)
    for unit, u in attr["units"].items():
        picked = {
            "n_jobs": len(u["jobs"]),
            "ledger_totals": u["ledger_totals"],
            "idle": {
                "totals": u["idle"]["totals"],
                "capacity_seconds": u["idle"]["capacity_seconds"],
            },
        }
        _flatten(f"attribution.{unit}", picked, flat)
    for key, report in service_reports.items():
        # SLO report scalars (counts, window percentiles, goodput, shed
        # rate, autoscaler actions) — strings/bools drop out in _flatten
        _flatten(f"service.{key}", report, flat)
    return flat


def _overhead_run(n_jobs: int) -> tuple[bytes, float]:
    """One synthetic setting-1 batch on the ``bench`` cluster (EJF, W=5.0,
    seed 1); returns (pickled metrics, seconds spent in ``system.run``)."""
    from repro.cluster import Cluster
    from repro.experiments.common import SCALES
    from repro.experiments.fig8_fig9_fig10_synthetic import params_for
    from repro.metrics import compute_metrics
    from repro.scheduler import UrsaConfig, UrsaSystem
    from repro.workloads import submit_workload, synthetic_setting1

    sc = SCALES["bench"]
    system = UrsaSystem(
        Cluster(sc.cluster), UrsaConfig(policy="ejf", policy_weight=5.0)
    )
    submit_workload(system, synthetic_setting1(params_for(sc), n_jobs=n_jobs), seed=1)
    start = time.perf_counter()
    system.run(max_events=sc.max_events)
    elapsed = time.perf_counter() - start
    if not system.all_done:
        raise RuntimeError("overhead workload did not finish")
    return pickle.dumps(compute_metrics(system)), elapsed


def measure_overhead(repeats: int = 3, n_jobs: int = 8) -> dict:
    """Telemetry-off vs telemetry-on wall clock on a synthetic setting-1
    batch (see :func:`_overhead_run`).

    Each repeat runs an off/on *pair* back-to-back, alternating which side
    goes first (host load drifts between runs; alternation cancels the
    first-in-pair bias).  The reported overhead is the **median of the
    per-pair on/off ratios** — far more robust against load spikes than
    comparing best-of times collected seconds apart.
    """
    from repro.obs import telemetry as tel_mod

    def run_off():
        return _overhead_run(n_jobs)

    def run_on():
        tel_mod.enable()
        try:
            return _overhead_run(n_jobs)
        finally:
            tel_mod.disable()

    off: list[float] = []
    on: list[float] = []
    ratios: list[float] = []
    metrics_off = metrics_on = None
    for rep in range(repeats):
        if rep % 2 == 0:
            metrics_off, t_off = run_off()
            metrics_on, t_on = run_on()
        else:
            metrics_on, t_on = run_on()
            metrics_off, t_off = run_off()
        off.append(t_off)
        on.append(t_on)
        ratios.append(t_on / t_off)
        print(f"  repeat {rep}: telemetry-off {t_off:6.2f} s   "
              f"telemetry-on {t_on:6.2f} s   ratio {t_on / t_off:.3f}",
              file=sys.stderr)
    ratios.sort()
    mid = len(ratios) // 2
    median_ratio = (ratios[mid] if len(ratios) % 2
                    else (ratios[mid - 1] + ratios[mid]) / 2.0)
    return {
        "workload": f"synthetic setting-1 on the bench cluster, EJF W=5.0, "
                    f"seed 1, {n_jobs} jobs",
        "method": "median of per-pair on/off ratios, alternating pair order",
        "repeats": repeats,
        "telemetry_off_s": [round(t, 2) for t in off],
        "telemetry_on_s": [round(t, 2) for t in on],
        "telemetry_off_best_s": round(min(off), 2),
        "telemetry_on_best_s": round(min(on), 2),
        "overhead_pct": round((median_ratio - 1.0) * 100.0, 1),
        "metrics_bit_identical": metrics_off == metrics_on,
    }


def _tolerance_for(name: str, tolerances: dict) -> float | None:
    """None = informational (never gated)."""
    for pattern, tol in tolerances.get("overrides", {}).items():
        if fnmatch.fnmatch(name, pattern):
            return tol
    return tolerances.get("default_rel", 0.0)


def diff(baseline: dict, candidate: dict) -> list[str]:
    """Compare flat candidate metrics to the baseline; return failures."""
    base = baseline["metrics"]
    tolerances = baseline.get("tolerances", {})
    failures: list[str] = []
    for name in sorted(base):
        tol = _tolerance_for(name, tolerances)
        if tol is None:
            continue
        if name not in candidate:
            failures.append(f"MISSING  {name} (baseline {base[name]!r})")
            continue
        a, b = base[name], candidate[name]
        if a == b:
            continue
        rel = abs(b - a) / max(abs(a), 1e-12)
        if rel > tol:
            failures.append(
                f"DRIFT    {name}: baseline {a!r} -> candidate {b!r} "
                f"(rel {rel:.3e} > tol {tol:g})"
            )
    for name in sorted(set(candidate) - set(base)):
        if _tolerance_for(name, tolerances) is not None:
            failures.append(f"NEW      {name} = {candidate[name]!r} (not in baseline)")
    return failures


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_candidate(path: str) -> dict:
    doc = _load(path)
    # accept either a flat metrics dict or a full baseline-shaped file
    return doc["metrics"] if "metrics" in doc else doc


def cmd_check(args) -> int:
    try:
        baseline = _load(args.baseline)
    except FileNotFoundError:
        print(f"metrics_diff: baseline {args.baseline} not found; "
              f"generate it with 'metrics_diff.py write'", file=sys.stderr)
        return 2
    if args.candidate:
        candidate = _load_candidate(args.candidate)
    else:
        print(f"metrics_diff: collecting candidate from canonical run "
              f"{baseline.get('canonical', CANONICAL)}", file=sys.stderr)
        candidate = collect_candidate(baseline.get("canonical", CANONICAL))
    failures = diff(baseline, candidate)
    if failures:
        print(f"metrics_diff: {len(failures)} metric(s) outside tolerance "
              f"vs {args.baseline}:")
        for line in failures:
            print(f"  {line}")
        return 1
    n = len(baseline["metrics"])
    print(f"metrics_diff: OK — {n} baseline metrics matched within tolerance")
    return 0


def cmd_write(args) -> int:
    print("metrics_diff: collecting canonical telemetry metrics...", file=sys.stderr)
    start = time.perf_counter()
    metrics = collect_candidate(CANONICAL)
    elapsed = time.perf_counter() - start
    doc = {
        "_tolerance_policy": TOLERANCE_POLICY,
        "canonical": CANONICAL,
        "tolerances": {"default_rel": 0.0, "overrides": {}},
        "metrics": metrics,
        "collect_seconds": round(elapsed, 2),
    }
    if args.measure_overhead:
        print("metrics_diff: measuring telemetry wall-clock overhead...",
              file=sys.stderr)
        doc["wall_clock"] = measure_overhead(args.repeats, args.n_jobs)
    Path(args.baseline).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"metrics_diff: wrote {len(metrics)} metrics to {args.baseline}")
    if "wall_clock" in doc:
        print(f"  telemetry overhead: {doc['wall_clock']['overhead_pct']}% "
              f"(identical metrics: {doc['wall_clock']['metrics_bit_identical']})")
    return 0


def cmd_dump(args) -> int:
    metrics = collect_candidate(CANONICAL)
    text = json.dumps(metrics, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"metrics_diff: wrote {len(metrics)} metrics to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_validate_prom(args) -> int:
    from repro.obs.promexport import validate_prom

    rc = 0
    for path in args.files:
        errs = validate_prom(Path(path).read_text())
        if errs:
            rc = 1
            print(f"{path}: {len(errs)} error(s)")
            for e in errs[:20]:
                print(f"  {e}")
        else:
            print(f"{path}: OK")
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="diff candidate metrics against the baseline")
    p.add_argument("--baseline", default=DEFAULT_BASELINE)
    p.add_argument("--candidate", default=None,
                   help="pre-collected candidate JSON (default: rerun the "
                        "canonical experiment)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("write", help="regenerate the baseline")
    p.add_argument("--baseline", default=DEFAULT_BASELINE)
    p.add_argument("--measure-overhead", action="store_true",
                   help="also time telemetry-off vs telemetry-on (synthetic "
                        "setting-1 batch) and record the overhead")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--n-jobs", type=int, default=8)
    p.set_defaults(func=cmd_write)

    p = sub.add_parser("dump", help="print/write candidate metrics, no diff")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dump)

    p = sub.add_parser("validate-prom", help="validate exposition-format files")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_validate_prom)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
