#!/usr/bin/env python
"""Measure single-simulation wall time: optimized tick vs the legacy tick.

One fixed, mid-size synthetic workload (setting-1 Type-1 jobs on the bench
cluster) is run to completion through ``UrsaSystem`` twice per repeat —
once with the PR-3 fast-path scheduler and once with ``legacy_tick=True``
(the frozen pre-change placement + forced per-tick resort + unmemoized
SRJF).  The best-of-N wall times give the speedup; the run also asserts
that both modes produce pickle-identical metrics, so the speedup is never
bought with a behavior change.

Writes a JSON baseline (default ``BENCH_sim.json``)::

    PYTHONPATH=src python scripts/bench_sim.py
    PYTHONPATH=src python scripts/bench_sim.py --repeats 5 --n-jobs 10
"""

from __future__ import annotations

import argparse
import json
import pickle
import platform
import sys
import time
from pathlib import Path


def _run_once(
    n_jobs: int, legacy: bool, profiled: bool = False, traced: bool = False,
    telemetry: bool = False,
) -> tuple[bytes, float, dict]:
    """One full simulation; returns (metrics bytes, wall seconds, profile).

    Timed repeats run *unprofiled*: the legacy placement carries no counter
    branches, so enabling the profiler would slow only the optimized side
    and understate the speedup.  The per-phase counters in the baseline
    come from one extra untimed profiled run.  ``traced=True`` records the
    monotask lifecycle through ``repro.obs`` (also untimed, for the
    tracing-is-pure-observation identity check and ``--trace-out``);
    ``telemetry=True`` likewise enables the cluster telemetry collector
    (unless the caller already enabled one, as the overhead timing in
    ``scripts/metrics_diff.py`` does around the *timed* repeats).
    """
    from repro.cluster import Cluster
    from repro.experiments.common import SCALES
    from repro.experiments.fig8_fig9_fig10_synthetic import params_for
    from repro.metrics import compute_metrics
    from repro.obs import recorder as obs_recorder
    from repro.obs import telemetry as obs_telemetry
    from repro.perf import profile as tick_profile
    from repro.scheduler import UrsaConfig, UrsaSystem
    from repro.workloads import submit_workload, synthetic_setting1

    rec = obs_recorder.enable() if traced else None
    if rec is not None:
        rec.begin_unit("bench_sim")
    tel = obs_telemetry.enable() if telemetry else None
    if tel is not None:
        tel.begin_unit("bench_sim")
    sc = SCALES["bench"]
    cluster = Cluster(sc.cluster)
    system = UrsaSystem(
        cluster, UrsaConfig(policy="ejf", policy_weight=5.0, legacy_tick=legacy)
    )
    workload = synthetic_setting1(params_for(sc), n_jobs=n_jobs)
    submit_workload(system, workload, seed=1)

    prof = tick_profile.enable() if profiled else None
    try:
        start = time.perf_counter()
        system.run(max_events=sc.max_events)
        elapsed = time.perf_counter() - start
    finally:
        if profiled:
            tick_profile.disable()
        if traced:
            obs_recorder.disable()
        if telemetry:
            obs_telemetry.disable()
    if not system.all_done:
        raise RuntimeError("bench_sim workload did not finish")
    metrics = pickle.dumps(compute_metrics(system))
    extra = prof.as_dict() if prof is not None else {}
    if rec is not None:
        extra["recorder"] = rec
    if tel is not None:
        extra["telemetry"] = tel
    return metrics, elapsed, extra


_PHASES = ("refresh", "resort", "ready", "place", "dispatch")


def _phase_breakdown(prof: dict) -> dict:
    """Per-phase share of the scheduling tick from a profiled run's dict."""
    total = sum(prof.get(f"{name}_ns", 0) for name in _PHASES) or 1
    return {
        name: {
            "ms": round(prof.get(f"{name}_ns", 0) / 1e6, 1),
            "share": round(prof.get(f"{name}_ns", 0) / total, 4),
        }
        for name in _PHASES
    }


def _print_breakdown_table(breakdown: dict) -> None:
    """ASCII per-phase table: ms and % of tick."""
    print(f"  {'phase':<10} {'ms':>12} {'%tick':>7}", file=sys.stderr)
    for name in _PHASES:
        cell = breakdown[name]
        print(f"  {name:<10} {cell['ms']:>12.1f} {100 * cell['share']:>6.1f}%",
              file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N (default 3)")
    parser.add_argument("--n-jobs", type=int, default=8, help="workload size (default 8)")
    parser.add_argument("--out", default="BENCH_sim.json")
    parser.add_argument(
        "--trace-out", default=None, metavar="DIR",
        help="also run once (untimed) with lifecycle tracing enabled and "
             "write trace.jsonl / trace.json under DIR; the traced run is "
             "folded into the metrics-identity check",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="also run once (untimed) with the cluster telemetry collector "
             "enabled and fold that run into the metrics-identity check "
             "(wall-clock overhead is measured separately by "
             "scripts/metrics_diff.py write --measure-overhead)",
    )
    args = parser.parse_args(argv)

    print(f"bench_sim: synthetic setting-1, n_jobs={args.n_jobs}, "
          f"best of {args.repeats}", file=sys.stderr)

    optimized: list[float] = []
    legacy: list[float] = []
    metrics_opt = metrics_leg = None
    for rep in range(args.repeats):
        metrics_opt, t_opt, _ = _run_once(args.n_jobs, legacy=False)
        metrics_leg, t_leg, _ = _run_once(args.n_jobs, legacy=True)
        optimized.append(t_opt)
        legacy.append(t_leg)
        print(f"  repeat {rep}: optimized {t_opt:6.2f} s   legacy {t_leg:6.2f} s",
              file=sys.stderr)

    # one extra (untimed) profiled run supplies the per-phase counters and
    # doubles as the profiled-run-is-identical check
    metrics_profiled, _, prof_opt = _run_once(args.n_jobs, legacy=False, profiled=True)
    identical = metrics_opt == metrics_leg == metrics_profiled

    if args.trace_out is not None:
        # one more untimed run with the lifecycle recorder on: tracing is
        # pure observation, so its metrics must join the identity check
        from repro.obs import write_trace_files

        metrics_traced, _, extra = _run_once(args.n_jobs, legacy=False, traced=True)
        identical = identical and metrics_opt == metrics_traced
        rec = extra["recorder"]
        paths = write_trace_files(rec, args.trace_out)
        print(f"  traced run: {len(rec.events)} events -> {paths['chrome']}",
              file=sys.stderr)

    if args.telemetry:
        # telemetry is a pure observer too: its run joins the identity check
        metrics_tel, _, extra = _run_once(args.n_jobs, legacy=False, telemetry=True)
        identical = identical and metrics_opt == metrics_tel
        tel = extra["telemetry"]
        totals = tel.summary()["totals"]
        print(f"  telemetry run: {totals['grants']:.0f} grants / "
              f"{totals['releases']:.0f} releases recorded", file=sys.stderr)
    best_opt, best_leg = min(optimized), min(legacy)
    speedup = best_leg / best_opt if best_opt else None

    breakdown = _phase_breakdown(prof_opt)
    print("per-phase breakdown (profiled run):", file=sys.stderr)
    _print_breakdown_table(breakdown)

    baseline = {
        "benchmark": "single-simulation wall time (optimized tick vs legacy tick)",
        "workload": f"synthetic setting-1, {args.n_jobs} Type-1 jobs, bench cluster, ejf",
        "repeats": args.repeats,
        "profile_optimized": prof_opt,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "optimized_s": [round(t, 2) for t in optimized],
        "legacy_s": [round(t, 2) for t in legacy],
        "optimized_best_s": round(best_opt, 2),
        "legacy_best_s": round(best_leg, 2),
        "speedup": round(speedup, 2) if speedup else None,
        "metrics_bit_identical": identical,
        "phase_breakdown": breakdown,
    }
    Path(args.out).write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(f"speedup {speedup:.2f}x (identical metrics: {identical}); "
          f"wrote {args.out}", file=sys.stderr)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
