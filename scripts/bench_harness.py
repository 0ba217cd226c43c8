#!/usr/bin/env python
"""Measure the perf harness: serial vs parallel vs cached suite wall time.

Writes a JSON baseline (default ``BENCH_harness.json``) with three passes
over the experiment suite plus a worker-count scaling curve:

1. ``serial``    — workers=0, no cache (the legacy ``run_all`` behaviour)
2. ``parallel``  — N workers, cold cache (fan-out + store overhead)
3. ``cached``    — N workers, warm cache (every unit served from disk)
4. ``scaling_curve`` — one cold-cache pass per worker count (default
   1/2/4), each on a fresh warm-reusable pool, with the per-pass
   setup-vs-compute split.

Every executed unit reports its pure simulation seconds (``compute_s``,
measured where the unit ran), so the JSON separates harness overhead
(process spawn, per-unit pickling, cache stores) from simulation work:
``overhead ≈ wall − compute/min(workers, units)``.  On a single-core host
the curve documents the honest ≤1× wall-clock result while the per-unit
overhead column still shows what the warm pool + initializer-shared spec
save per unit.

Usage::

    PYTHONPATH=src python scripts/bench_harness.py --scale bench
    PYTHONPATH=src python scripts/bench_harness.py --scale tiny --only table2,fig8
    PYTHONPATH=src python scripts/bench_harness.py --curve 1,2,4,8
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pickle
import platform
import sys
import tempfile
import time
from pathlib import Path


def _measure(runner, names, scale):
    from repro.experiments.registry import SPLIT_EXPERIMENTS  # noqa: F401 (import check)

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        results = runner.run_many(names, scale)
    return time.perf_counter() - start, results


def _pass_stats(runner, wall_s: float) -> dict:
    """Setup-vs-compute split for one measured pass.

    ``compute_s`` sums in-worker simulation spans; with ``k`` concurrent
    workers those spans overlap, so the amortized per-unit harness overhead
    is ``(wall − compute/k) / units`` with ``k = min(workers, units)``.
    """
    units = runner.executed_units
    k = max(1, min(runner.workers, units)) if runner.workers else 1
    overhead_s = wall_s - runner.compute_s / k
    return {
        "workers": runner.workers,
        "wall_s": round(wall_s, 2),
        "compute_s": round(runner.compute_s, 2),
        "executed_units": units,
        "cached_units": runner.cached_units,
        "overhead_s": round(overhead_s, 2),
        "per_unit_overhead_ms": round(1000.0 * overhead_s / units, 1) if units else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="bench")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="parallel worker count (default: min(4, cores))",
    )
    parser.add_argument("--only", default=None, help="comma-separated experiment subset")
    parser.add_argument(
        "--curve", default="1,2,4", metavar="N,N,...",
        help="worker counts for the scaling curve (default: 1,2,4; "
             "empty string skips the curve)",
    )
    parser.add_argument("--out", default="BENCH_harness.json")
    args = parser.parse_args(argv)

    from repro.experiments.registry import SPLIT_EXPERIMENTS
    from repro.perf import ParallelRunner, ResultCache

    names = list(SPLIT_EXPERIMENTS) if args.only is None else [n for n in args.only.split(",") if n]
    workers = args.workers if args.workers is not None else max(1, min(4, os.cpu_count() or 1))
    curve = [int(n) for n in args.curve.split(",") if n] if args.curve else []

    print(f"suite: {names}", file=sys.stderr)
    print(f"scale={args.scale} workers={workers} curve={curve}", file=sys.stderr)

    serial = ParallelRunner(workers=0)
    serial_s, serial_results = _measure(serial, names, args.scale)
    serial_stats = _pass_stats(serial, serial_s)
    print(f"serial:   {serial_s:8.1f} s", file=sys.stderr)
    serial_blob = pickle.dumps(serial_results)

    with tempfile.TemporaryDirectory() as cache_dir:
        with ParallelRunner(workers=workers, cache=ResultCache(cache_dir)) as runner:
            parallel_s, parallel_results = _measure(runner, names, args.scale)
            parallel_stats = _pass_stats(runner, parallel_s)
            executed = parallel_stats["executed_units"]
            print(f"parallel: {parallel_s:8.1f} s  ({executed} units)", file=sys.stderr)

            cached_s, cached_results = _measure(runner, names, args.scale)
            print(f"cached:   {cached_s:8.1f} s  ({runner.cached_units} hits)", file=sys.stderr)
            if runner.executed_units:
                print("WARNING: warm pass re-executed units", file=sys.stderr)

    identical = pickle.dumps(parallel_results) == serial_blob and (
        pickle.dumps(cached_results) == serial_blob
    )

    scaling_curve = []
    for n in curve:
        with tempfile.TemporaryDirectory() as cache_dir:
            with ParallelRunner(workers=n, cache=ResultCache(cache_dir)) as curve_runner:
                wall_s, curve_results = _measure(curve_runner, names, args.scale)
        point = _pass_stats(curve_runner, wall_s)
        point["speedup_vs_serial"] = round(serial_s / wall_s, 2) if wall_s else None
        identical = identical and pickle.dumps(curve_results) == serial_blob
        scaling_curve.append(point)
        print(
            f"curve[{n}]: {wall_s:8.1f} s  "
            f"({point['speedup_vs_serial']}x vs serial, "
            f"{point['per_unit_overhead_ms']} ms/unit overhead)",
            file=sys.stderr,
        )

    baseline = {
        "benchmark": "experiment-suite wall time (serial vs parallel vs cached)",
        "scale": args.scale,
        "experiments": names,
        "units": executed,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "serial_s": round(serial_s, 2),
        "parallel_s": round(parallel_s, 2),
        "cached_s": round(cached_s, 2),
        "parallel_speedup": round(serial_s / parallel_s, 2) if parallel_s else None,
        "cached_fraction_of_cold": round(cached_s / parallel_s, 4) if parallel_s else None,
        "results_bit_identical": identical,
        "serial_pass": serial_stats,
        "parallel_pass": parallel_stats,
        "scaling_curve": scaling_curve,
        "timing_note": (
            "compute_s sums in-worker simulation spans; "
            "overhead_s = wall_s - compute_s / min(workers, units). "
            "On a 1-core host pool passes cannot beat serial wall time; "
            "per_unit_overhead_ms is the comparable column."
        ),
    }
    Path(args.out).write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
