"""CLI for the experiment suite.

Examples::

    # the whole suite, serial
    python -m repro.experiments --scale bench

    # fan units across 4 worker processes with an on-disk result cache
    python -m repro.experiments --parallel 4 --cache-dir .repro-cache

    # list what can run / run a subset
    python -m repro.experiments --list
    python -m repro.experiments --only table2 --only fig8 --scale tiny

    # trace monotask lifecycles; writes traces/trace.jsonl + trace.json
    # (open the latter at https://ui.perfetto.dev)
    python -m repro.experiments --trace --only table2 --scale tiny

    # why-slow attribution: critical-path ledgers + idle blame; writes
    # traces/attribution.json and flow-enriched trace.json (implies --trace,
    # works with --parallel: workers record locally, the parent splices)
    python -m repro.experiments --analyze --only table2 --scale tiny

    # telemetry: live per-unit dashboard panels, or metric files
    # (telemetry.json / metrics.prom / scrapes/*.prom / dashboard.txt)
    python -m repro.experiments --dashboard --only table2 --scale tiny
    python -m repro.experiments --telemetry-out metrics --only fig8 --scale tiny

    # open-loop service mode: SLO curves + a validated slo_report.json
    # (see docs/OPERATIONS.md for the operator walkthrough)
    python -m repro.experiments --only fig_service --scale tiny --service-out service-out
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from ..metrics.report import format_latency_rows
from ..obs import attribution as obs_attribution
from ..obs import derive_latency, write_trace_files
from ..obs import dashboard as obs_dashboard
from ..obs import promexport
from ..obs import recorder as obs_recorder
from ..obs import telemetry as obs_telemetry
from ..perf.cache import ResultCache
from ..perf.runner import ParallelRunner, default_workers
from .common import SCALES
from .registry import SPLIT_EXPERIMENTS, run_all


def resolve_experiment_name(name: str) -> str | None:
    """Resolve a (possibly abbreviated) experiment name.

    Exact names win; otherwise a *unique* prefix is accepted, so ``fig7``
    resolves to ``fig7+sec5.2`` while an ambiguous ``fig`` stays unknown.
    """
    if name in SPLIT_EXPERIMENTS:
        return name
    matches = [known for known in SPLIT_EXPERIMENTS if known.startswith(name)]
    return matches[0] if len(matches) == 1 else None


def build_parser() -> argparse.ArgumentParser:
    """The CLI surface, exposed as a function so tools can introspect it
    (``scripts/check_docs.py`` cross-checks every flag against the docs)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "--scale", default="bench", choices=sorted(SCALES),
        help="experiment scale (default: bench)",
    )
    parser.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="fan simulation units across N worker processes "
             "(0 = auto-detect core count; omit for serial in-process)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache unit results under DIR; unchanged units are skipped on re-run",
    )
    parser.add_argument(
        "--only", action="append", default=None, metavar="NAME",
        help="run only this experiment (repeatable; also accepts comma-separated "
             "lists and unique prefixes, e.g. fig7)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed (default: 0)")
    parser.add_argument(
        "--trace", action="store_true",
        help="record monotask lifecycle events and export JSONL + Chrome "
             "Trace JSON (works with --parallel: pool workers record "
             "locally and the parent splices the streams in unit order)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="DIR",
        help="directory for trace.jsonl / trace.json (default: traces; "
             "implies --trace)",
    )
    parser.add_argument(
        "--analyze", action="store_true",
        help="derive why-slow attribution from the trace: per-job "
             "critical-path JCT ledgers and the idle-time blame ledger; "
             "writes attribution.json next to the trace files and enriches "
             "trace.json with critical-path flow arrows (implies --trace)",
    )
    parser.add_argument(
        "--dashboard", action="store_true",
        help="collect cluster telemetry and print an ASCII dashboard panel "
             "as each simulation unit finishes (forces serial execution)",
    )
    parser.add_argument(
        "--telemetry-out", default=None, metavar="DIR",
        help="collect cluster telemetry and write telemetry.json, "
             "metrics.prom, scrapes/*.prom and dashboard.txt under DIR "
             "(forces serial execution)",
    )
    parser.add_argument(
        "--telemetry-interval", type=float, default=1.0, metavar="SEC",
        help="telemetry resampling interval in simulation seconds "
             "(default: 1.0)",
    )
    parser.add_argument(
        "--service-out", default=None, metavar="DIR",
        help="write the fig_service SLO report to DIR/slo_report.json and "
             "validate it against the report schema (requires fig_service "
             "among the experiments run; see docs/OPERATIONS.md)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_experiments",
        help="list experiment names and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_experiments:
        for name in SPLIT_EXPERIMENTS:
            print(name)
        return 0

    only = None
    if args.only:
        requested = [name for group in args.only for name in group.split(",") if name]
        if not requested:
            parser.error("--only given but no experiment names; see --list")
        only, unknown = [], []
        for name in requested:
            resolved = resolve_experiment_name(name)
            (only.append(resolved) if resolved else unknown.append(name))
        if unknown:
            parser.error(f"unknown experiments {unknown}; see --list")

    if args.parallel is None:
        workers = 0
    elif args.parallel == 0:
        workers = default_workers()
    elif args.parallel > 0:
        workers = args.parallel
    else:
        parser.error("--parallel must be >= 0")

    tracing = args.trace or args.trace_out is not None or args.analyze

    telemetry_on = args.dashboard or args.telemetry_out is not None
    if telemetry_on and workers:
        parser.error(
            "--dashboard/--telemetry-out require serial execution; "
            "omit --parallel"
        )
    if not (math.isfinite(args.telemetry_interval) and args.telemetry_interval > 0):
        parser.error(
            "--telemetry-interval must be positive and finite, "
            f"got {args.telemetry_interval!r}"
        )
    if args.service_out is not None and only is not None and "fig_service" not in only:
        parser.error("--service-out requires fig_service among the experiments run")

    # every argument check is above: from here on the obs globals are
    # installed, and only the finally below removes them
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    runner = ParallelRunner(workers=workers, cache=cache)

    rec = obs_recorder.enable() if tracing else None
    tel = obs_telemetry.enable(args.telemetry_interval) if telemetry_on else None
    if tel is not None and args.dashboard:
        obs_dashboard.attach_live(tel)

    start = time.perf_counter()
    try:
        results = run_all(args.scale, only=only, seed=args.seed, runner=runner)
    finally:
        if tracing:
            obs_recorder.disable()
        if telemetry_on:
            obs_telemetry.disable()
    elapsed = time.perf_counter() - start
    mode = f"{workers} workers" if workers else "serial"
    summary = f"[{mode}] suite completed in {elapsed:.1f} s"
    if cache is not None:
        summary += f" ({runner.executed_units} units executed, {runner.cached_units} from cache)"
    print(f"\n{summary}", file=sys.stderr)
    attr = None
    if rec is not None:
        stats = derive_latency(rec.events.folds())
        print("\n" + format_latency_rows(
            stats, title="Trace-derived latency distributions"
        ))
        out_dir = args.trace_out or "traces"
        if args.analyze:
            attr = obs_attribution.attribute(rec.events)
        paths = write_trace_files(rec, out_dir, attribution=attr)
        print(
            f"[trace] {len(rec.events)} events across {len(stats['units'])} "
            f"unit(s) -> {paths['jsonl']} and {paths['chrome']} "
            "(open trace.json at https://ui.perfetto.dev)",
            file=sys.stderr,
        )
        if attr is not None:
            attr_path = os.path.join(out_dir, "attribution.json")
            obs_attribution.write_attribution(attr, attr_path)
            prom_path = promexport.write_attr_prom(
                attr, os.path.join(out_dir, "attribution.prom")
            )
            n_jobs = sum(len(u["jobs"]) for u in attr["units"].values())
            print(
                f"[analyze] {n_jobs} job ledger(s) across "
                f"{len(attr['units'])} unit(s) -> {attr_path}, {prom_path}",
                file=sys.stderr,
            )
            errors = obs_attribution.validate(attr)
            if errors:
                for err in errors:
                    print(f"[analyze] IDENTITY VIOLATION: {err}", file=sys.stderr)
                return 1
    if tel is not None and args.telemetry_out is not None:
        out_dir = args.telemetry_out
        os.makedirs(out_dir, exist_ok=True)
        tel_summary = tel.summary()  # one summary per unit for all four writers
        summary_path = os.path.join(out_dir, "telemetry.json")
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tel_summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
        prom_path = promexport.write_prom(tel_summary, os.path.join(out_dir, "metrics.prom"))
        scrapes = promexport.write_prom_series(tel_summary, os.path.join(out_dir, "scrapes"))
        dash_path = os.path.join(out_dir, "dashboard.txt")
        with open(dash_path, "w", encoding="utf-8") as fh:
            fh.write(obs_dashboard.render_dashboard(tel_summary))
            fh.write("\n")
            if attr is not None:
                # --analyze + --telemetry-out: append the idle-blame panels
                for unit_label in sorted(attr["units"]):
                    fh.write(obs_dashboard.render_blame(
                        unit_label, attr["units"][unit_label]
                    ))
                    fh.write("\n")
        print(
            f"[telemetry] {len(tel_summary['units'])} unit(s) -> {summary_path}, "
            f"{prom_path}, {len(scrapes)} scrape file(s), {dash_path}",
            file=sys.stderr,
        )
    if args.service_out is not None:
        from ..service import validate_report

        reports = results.get("fig_service") or {}
        errors = {
            key: errs
            for key, rep in sorted(reports.items())
            if (errs := validate_report(rep))
        }
        out_dir = args.service_out
        os.makedirs(out_dir, exist_ok=True)
        report_path = os.path.join(out_dir, "slo_report.json")
        document = {
            "scale": args.scale if isinstance(args.scale, str) else args.scale.name,
            "seed": args.seed,
            "units": {key: reports[key] for key in sorted(reports)},
        }
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(
            f"[service] {len(reports)} unit report(s) -> {report_path}",
            file=sys.stderr,
        )
        if errors:
            for key, errs in errors.items():
                for err in errs:
                    print(f"[service] SCHEMA VIOLATION {key}: {err}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
