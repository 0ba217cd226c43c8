#!/usr/bin/env python
"""Why-slow analysis of a JSONL lifecycle trace — no simulation rerun.

Reads a ``trace.jsonl`` produced by ``python -m repro.experiments --trace``
(or ``--analyze``) and derives the critical-path attribution: per-job JCT
ledgers (admission wait, queue wait, placement delay, contention, transfer,
compute, fault recovery — summing exactly to each job's completion time)
and the per-worker idle-time blame ledger (every idle slot-second classified
as no-work / blocked-by-policy / admission-gated / fault downtime)::

    PYTHONPATH=src python scripts/trace_analyze.py traces/trace.jsonl
    PYTHONPATH=src python scripts/trace_analyze.py traces/trace.jsonl --top 5
    PYTHONPATH=src python scripts/trace_analyze.py traces/trace.jsonl --format csv
    PYTHONPATH=src python scripts/trace_analyze.py traces/trace.jsonl --format json
    PYTHONPATH=src python scripts/trace_analyze.py traces/trace.jsonl --out attribution.json
    PYTHONPATH=src python scripts/trace_analyze.py traces/trace.jsonl --check

Default output: the top-N slowest jobs with their ledgers, then one
idle-blame table per unit (policy).  ``--format csv`` emits two
machine-readable sections through ``csv.writer`` (safe quoting for unit
labels containing commas); ``--format json`` dumps the canonical
attribution document to stdout.  ``--out`` writes that document to a file.

``--check`` (also implied by every run) validates the sum-to-JCT identity
for every job at 1e-9 relative tolerance and the non-negativity of the
idle ledger, and exits non-zero on any violation — the CI analyze-smoke
job gates on this.
"""

from __future__ import annotations

import argparse
import csv
import sys


def _fmt_ledger(ledger: dict, min_s: float = 1e-3) -> str:
    from repro.obs.attribution import CATEGORIES

    parts = [
        f"{cat} {ledger[cat]:.2f}s" for cat in CATEGORIES if ledger[cat] >= min_s
    ]
    return "  ".join(parts) if parts else "(all phases < 1ms)"


def _print_tables(result: dict, top: int) -> None:
    from repro.obs.attribution import IDLE_CAUSES, RTYPES, top_jobs

    rows = top_jobs(result, n=top)
    print(f"top {len(rows)} slowest job(s) by JCT")
    for unit_label, jid, entry in rows:
        name = f" ({entry['name']})" if entry.get("name") else ""
        flag = "  FAILED" if entry["failed"] else ""
        print(f"\n  {unit_label}  job {jid}{name}  jct {entry['jct']:.2f}s{flag}")
        print(f"    {_fmt_ledger(entry['ledger'])}")

    for unit_label in sorted(result["units"]):
        unit = result["units"][unit_label]
        idle = unit["idle"]
        if not idle["per_worker"]:
            continue
        print(f"\nidle-time blame — {unit_label} "
              f"(t_end {idle['end_t']:.1f}s)")
        print(f"  {'resource':>8s}  " + "  ".join(
            f"{c:>16s}" for c in IDLE_CAUSES
        ) + f"  {'capacity_s':>12s}")
        for rtype in RTYPES:
            causes = idle["totals"][rtype]
            cap = idle["capacity_seconds"][rtype]
            print(f"  {rtype:>8s}  " + "  ".join(
                f"{causes[c]:>16.1f}" for c in IDLE_CAUSES
            ) + f"  {cap:>12.1f}")


def _print_csv(result: dict, top: int, out) -> None:
    """Two CSV sections: job ledgers, then the idle blame table.

    Every cell goes through ``csv.writer`` — unit labels regularly contain
    commas (tuple unit keys like ``fig8:(2, 0.5)``), so manual joins would
    produce corrupt CSV.
    """
    from repro.obs.attribution import CATEGORIES, IDLE_CAUSES, RTYPES, top_jobs

    writer = csv.writer(out, lineterminator="\n")
    # "job_failed" (the flag) vs the "failed" ledger category
    writer.writerow(
        ["section", "unit", "job", "name", "jct", "job_failed"] + list(CATEGORIES)
    )
    for unit_label, jid, entry in top_jobs(result, n=top):
        writer.writerow(
            ["job", unit_label, jid, entry.get("name") or "",
             entry["jct"], entry["failed"]]
            + [entry["ledger"][c] for c in CATEGORIES]
        )
    writer.writerow([])
    writer.writerow(["section", "unit", "resource", "capacity_seconds"]
                    + list(IDLE_CAUSES))
    for unit_label in sorted(result["units"]):
        idle = result["units"][unit_label]["idle"]
        if not idle["per_worker"]:
            continue
        for rtype in RTYPES:
            writer.writerow(
                ["idle", unit_label, rtype, idle["capacity_seconds"][rtype]]
                + [idle["totals"][rtype][c] for c in IDLE_CAUSES]
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", metavar="TRACE_JSONL",
                        help="JSONL lifecycle trace to analyze")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="show the N slowest jobs (default: 10)")
    parser.add_argument("--format", default="table",
                        choices=("table", "csv", "json"),
                        help="output format (default: table)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the canonical attribution.json here")
    parser.add_argument("--check", action="store_true",
                        help="validate only (no tables): sum-to-JCT identity "
                             "and idle-ledger sanity; exit non-zero on error")
    args = parser.parse_args(argv)
    if args.top < 0:
        parser.error(f"--top must be non-negative, got {args.top}")

    from repro.obs import read_trace
    from repro.obs.attribution import attribute, validate, write_attribution

    events = read_trace(args.trace)
    if not events:
        print(f"{args.trace}: empty trace", file=sys.stderr)
        return 1
    result = attribute(events)

    errors = validate(result)
    if errors:
        print(f"{args.trace}: ATTRIBUTION INVALID ({len(errors)} error(s))",
              file=sys.stderr)
        for err in errors[:20]:
            print(f"  {err}", file=sys.stderr)
        return 1

    if args.out is not None:
        write_attribution(result, args.out)
        print(f"[analyze] wrote {args.out}", file=sys.stderr)

    if args.check:
        n_jobs = sum(len(u["jobs"]) for u in result["units"].values())
        print(f"{args.trace}: OK ({n_jobs} job ledger(s), "
              f"{len(result['units'])} unit(s), sum-to-JCT identity holds)")
        return 0

    if args.format == "json":
        from repro.obs.attribution import render_json

        sys.stdout.write(render_json(result))
    elif args.format == "csv":
        _print_csv(result, args.top, sys.stdout)
    else:
        _print_tables(result, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
