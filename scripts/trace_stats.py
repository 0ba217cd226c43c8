#!/usr/bin/env python
"""Summarize a JSONL lifecycle trace without rerunning any simulation.

Reads a ``trace.jsonl`` produced by ``python -m repro.experiments --trace``
and prints the allocation-latency
and queue-wait percentile tables — the paper's Obj-4 evidence — derived
purely from the recorded events::

    PYTHONPATH=src python scripts/trace_stats.py traces/trace.jsonl
    PYTHONPATH=src python scripts/trace_stats.py traces/trace.jsonl --per-unit
    PYTHONPATH=src python scripts/trace_stats.py traces/trace.jsonl --format csv
    PYTHONPATH=src python scripts/trace_stats.py traces/trace.jsonl --format csv --events
    PYTHONPATH=src python scripts/trace_stats.py --validate-chrome traces/trace.json

``--format csv`` writes the same rows as machine-readable CSV (one extra
leading ``unit`` column; the header row is always emitted) for spreadsheet
or pandas post-processing.  ``--events`` dumps the raw events instead
(``unit,t,kind,payload``); the payload column is the event's remaining
fields as JSON, which always contains commas — every cell goes through
``csv.writer`` so quoting stays correct for any payload content.

``--validate-chrome`` checks a Chrome Trace JSON file against the schema
subset the exporter emits (the CI smoke job gates on this) and exits
non-zero on the first invalid document.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from pathlib import Path


def _write_csv(per_unit_stats: dict, out) -> None:
    """Emit latency rows as CSV, one leading ``unit`` column per row."""
    from repro.metrics.report import latency_rows

    writer = csv.writer(out, lineterminator="\n")
    header_written = False
    for label, stats in per_unit_stats.items():
        headers, rows = latency_rows(stats)
        if not header_written:
            writer.writerow(["unit"] + headers)
            header_written = True
        for row in rows:
            writer.writerow([label] + row)


def _write_events_csv(events, out) -> None:
    """Dump raw events as ``unit,t,kind,payload`` rows.

    The payload cell is the event's kind-specific fields serialized as JSON
    (sorted keys) — it always contains commas and may contain quotes, so
    rows must go through ``csv.writer``, never a manual ``",".join``.
    """
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["unit", "t", "kind", "payload"])
    for ev in events:
        payload = {k: v for k, v in ev.items() if k not in ("unit", "t", "kind")}
        writer.writerow([
            ev["unit"], ev["t"], ev["kind"],
            json.dumps(payload, sort_keys=True, default=str),
        ])


def _validate_chrome(path: str) -> int:
    from repro.obs import validate_chrome_trace

    doc = json.loads(Path(path).read_text())
    errors = validate_chrome_trace(doc)
    n_events = len(doc.get("traceEvents", [])) if isinstance(doc, dict) else 0
    if errors:
        print(f"{path}: INVALID ({len(errors)} error(s) in {n_events} events)")
        for err in errors[:20]:
            print(f"  {err}")
        if len(errors) > 20:
            print(f"  ... and {len(errors) - 20} more")
        return 1
    print(f"{path}: OK ({n_events} trace events)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "trace", nargs="?", metavar="TRACE_JSONL",
        help="JSONL lifecycle trace to summarize",
    )
    parser.add_argument(
        "--per-unit", action="store_true",
        help="print one table per simulation unit instead of one overall",
    )
    parser.add_argument(
        "--format", default="table", choices=("table", "csv"),
        help="output format (default: table); csv implies machine-readable "
             "output only (no event-count preamble)",
    )
    parser.add_argument(
        "--events", action="store_true",
        help="with --format csv: dump the raw events (unit,t,kind,payload) "
             "instead of the latency tables; payload is JSON, safely quoted",
    )
    parser.add_argument(
        "--validate-chrome", default=None, metavar="TRACE_JSON",
        help="validate a Chrome Trace JSON export instead of summarizing",
    )
    args = parser.parse_args(argv)

    if args.validate_chrome is not None:
        return _validate_chrome(args.validate_chrome)
    if args.trace is None:
        parser.error("a TRACE_JSONL path (or --validate-chrome) is required")

    from repro.metrics import format_latency_rows
    from repro.obs import derive_latency, read_trace

    events = read_trace(args.trace)
    runs = list(events.unit_runs())
    if not runs:
        print(f"{args.trace}: empty trace", file=sys.stderr)
        return 1

    if args.events:
        if args.format != "csv":
            parser.error("--events requires --format csv")
        _write_events_csv(events, sys.stdout)
        return 0

    folds = events.folds()
    if args.per_unit:
        per_unit_stats = {label: derive_latency({label: fold})
                          for label, fold in folds.items()}
    else:
        per_unit_stats = {"all": derive_latency(folds)}

    if args.format == "csv":
        _write_csv(per_unit_stats, sys.stdout)
        return 0

    kinds = Counter(row[0] for _, rows in runs for row in rows)
    print(f"{args.trace}: {sum(kinds.values())} events")
    print("  " + ", ".join(f"{k}={n}" for k, n in sorted(kinds.items())))
    for label, stats in per_unit_stats.items():
        title = (f"[{label}]" if args.per_unit
                 else f"latency distributions ({len(stats['units'])} unit(s))")
        print("\n" + format_latency_rows(stats, title=title))
    return 0


if __name__ == "__main__":
    sys.exit(main())
