"""Trace export: JSONL and Chrome Trace Format (Perfetto-loadable).

Two serializations of the same event stream (``recorder.events``, the
dict view of the recorded rows — dicts exist only here, at the file
boundary):

* **JSONL** — one schema dict per line (see :mod:`repro.obs.events`);
  lossless and greppable.  :func:`read_trace` turns it back into rows once,
  so ``scripts/trace_stats.py`` and ``scripts/trace_analyze.py`` re-derive
  the latency tables and the attribution without rerunning any simulation.
* **Chrome Trace Format** — the JSON array format Perfetto and
  ``chrome://tracing`` load (open ``trace.json`` at https://ui.perfetto.dev).
  Each simulation *unit* becomes one process (its own t=0 clock); within a
  process, thread 0 is the centralized scheduler and every worker×resource
  pair gets its own thread row:

  - monotask executions are duration slices (``ph: "X"``) on their
    worker×resource row, from resource grant to completion;
  - Algorithm-1 placement decisions and scheduling ticks are instant
    events (``ph: "i"``) on the scheduler row, with the winning ``F(t,w)``
    score in ``args``;
  - queue depth and running-monotask counts are counter tracks
    (``ph: "C"``) so allocation latency is visible as queue build-up;
  - when an attribution result is supplied (``--analyze``), flow events
    (``ph: "s"`` / ``"f"`` pairs sharing an ``id``) draw arrows between
    consecutive monotask slices along each job's scheduling-aware critical
    path, so the chain that bounded the JCT is visible in Perfetto.

Timestamps are simulation seconds scaled to microseconds (the format's
unit); no wall-clock time appears anywhere.
"""

from __future__ import annotations

import json
from itertools import groupby
from pathlib import Path
from typing import Iterable

from . import events as _ev
from .recorder import EventView

__all__ = [
    "write_jsonl", "read_trace", "chrome_trace", "write_chrome_trace",
    "write_trace_files", "validate_chrome_trace",
]

_RES_TID = {"cpu": 0, "network": 1, "disk": 2}
_SCALE = 1e6  # simulation seconds -> trace microseconds


def _json_default(obj):
    # numpy scalars reach event fields via workload-derived sizes; .item()
    # yields the equivalent python int/float without importing numpy here
    item = getattr(obj, "item", None)
    if item is not None:
        return item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl(events: Iterable[dict], path) -> Path:
    """Write one event per line; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for ev in events:
            fh.write(json.dumps(ev, sort_keys=True, default=_json_default))
            fh.write("\n")
    return path


def read_trace(path) -> EventView:
    """A JSONL trace as the view it was written from: each event becomes its
    row here, once, so every analysis reads the same per-unit rows from a
    file as from a live recorder."""
    with Path(path).open() as fh:
        events = (json.loads(line) for line in fh if line.strip())
        return EventView.from_runs(
            (unit, [_ev.row_from_event(ev) for ev in evs])
            for unit, evs in groupby(events, lambda ev: ev.get("unit", "run"))
        )


# ----------------------------------------------------------------------
# Chrome Trace Format
# ----------------------------------------------------------------------
#: critical-path segment labels that denote actual monotask run time (the
#: flow-arrow anchors); wait labels carry no slice to bind to
_RUN_LABELS = frozenset({
    "compute", "transfer", "disk_io",
    "contention_cpu", "contention_network", "contention_disk",
})


def _flow_events(te: list[dict], pids: dict[str, int],
                 attribution: dict) -> None:
    """Append ``ph: "s"``/``"f"`` flow pairs linking consecutive monotask
    slices along each job's critical path (one arrow per dependency hop)."""
    flow_id = 0
    for unit_label in sorted(attribution.get("units", {})):
        pid = pids.get(unit_label)
        if pid is None:
            continue  # attribution for a unit absent from this stream
        unit = attribution["units"][unit_label]
        for jid in sorted(unit["jobs"], key=int):
            # collapse the segment list into the ordered chain of distinct
            # monotasks with their run-slice extents
            chain: list[dict] = []
            for seg in unit["jobs"][jid]["critical_path"]:
                if seg["label"] not in _RUN_LABELS or "mt" not in seg:
                    continue
                if chain and chain[-1]["mt"] == seg["mt"]:
                    chain[-1]["t1"] = max(chain[-1]["t1"], seg["t1"])
                else:
                    chain.append({
                        "mt": seg["mt"], "worker": seg["worker"],
                        "rtype": seg["rtype"], "t0": seg["t0"], "t1": seg["t1"],
                    })
            for a, b in zip(chain, chain[1:]):
                flow_id += 1
                common = {"name": "critical_path", "cat": "critpath",
                          "pid": pid, "id": flow_id}
                te.append({
                    "ph": "s", **common,
                    "tid": 1 + a["worker"] * 3 + _RES_TID[a["rtype"]],
                    "ts": a["t1"] * _SCALE,
                })
                te.append({
                    "ph": "f", "bp": "e", **common,
                    "tid": 1 + b["worker"] * 3 + _RES_TID[b["rtype"]],
                    "ts": b["t0"] * _SCALE,
                })


def chrome_trace(events: Iterable[dict], engine_stats: dict | None = None,
                 attribution: dict | None = None) -> dict:
    """Convert an event stream into a Chrome Trace Format document.

    ``attribution`` (a :func:`repro.obs.attribution.attribute` result)
    additionally emits critical-path flow arrows between monotask slices.
    """
    te: list[dict] = []
    pids: dict[str, int] = {}
    named_threads: set[tuple[int, int]] = set()
    starts: dict[tuple, dict] = {}

    def thread_meta(pid: int, tid: int, name: str) -> None:
        if (pid, tid) in named_threads:
            return
        named_threads.add((pid, tid))
        te.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": name},
        })

    def pid_for(unit: str) -> int:
        pid = pids.get(unit)
        if pid is None:
            pid = pids[unit] = len(pids) + 1
            te.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": unit},
            })
            thread_meta(pid, 0, "scheduler")
        return pid

    def tid_for(pid: int, worker: int, rtype: str) -> int:
        tid = 1 + worker * 3 + _RES_TID[rtype]
        thread_meta(pid, tid, f"w{worker} {rtype}")
        return tid

    for ev in events:
        kind = ev["kind"]
        unit = ev.get("unit", "run")
        pid = pid_for(unit)
        ts = ev["t"] * _SCALE
        if kind == _ev.MT_START or kind == _ev.RES_RELEASE:
            if kind == _ev.MT_START:
                starts[(unit, ev["job"], ev["mt"])] = ev
            te.append({
                "ph": "C", "name": f"w{ev['worker']} {ev['rtype']} running",
                "pid": pid, "tid": 0, "ts": ts,
                "args": {"running": ev["running"]},
            })
        elif kind == _ev.MT_FINISH:
            start = starts.pop((unit, ev["job"], ev["mt"]), None)
            if start is None:
                continue  # finish without a recorded grant (partial trace)
            tid = tid_for(pid, start["worker"], start["rtype"])
            t0 = start["t"] * _SCALE
            te.append({
                "ph": "X", "name": f"j{ev['job']}/mt{ev['mt']}",
                "cat": start["rtype"], "pid": pid, "tid": tid,
                "ts": t0, "dur": ts - t0,
                "args": {
                    "job": ev["job"], "task": ev["task"], "mt": ev["mt"],
                    "worker": start["worker"], "bypass": start["bypass"],
                },
            })
        elif kind in (_ev.QUEUE_PUSH, _ev.QUEUE_POP):
            te.append({
                "ph": "C", "name": f"w{ev['worker']} {ev['rtype']} queued",
                "pid": pid, "tid": 0, "ts": ts,
                "args": {"depth": ev["qlen"]},
            })
        elif kind == _ev.TASK_PLACED:
            te.append({
                "ph": "i", "s": "p",
                "name": f"place j{ev['job']}/t{ev['task']} -> w{ev['worker']}",
                "pid": pid, "tid": 0, "ts": ts,
                "args": {"score": ev["score"], "worker": ev["worker"], "n_mt": ev["n_mt"]},
            })
        elif kind == _ev.SCHED_TICK:
            te.append({
                "ph": "i", "s": "t", "name": "sched_tick",
                "pid": pid, "tid": 0, "ts": ts,
                "args": {"assigned": ev["assigned"]},
            })
        elif kind in (_ev.JOB_SUBMIT, _ev.JOB_ADMIT, _ev.JOB_FINISH):
            te.append({
                "ph": "i", "s": "p", "name": f"{kind} j{ev['job']}",
                "pid": pid, "tid": 0, "ts": ts,
                "args": {k: v for k, v in ev.items() if k not in ("kind", "t", "unit")},
            })

    if attribution is not None:
        _flow_events(te, pids, attribution)
    doc = {"traceEvents": te, "displayTimeUnit": "ms"}
    if engine_stats:
        doc["otherData"] = {
            "engine": {
                unit: {"events_fired": s[0], "sim_end": s[1]}
                for unit, s in engine_stats.items()
            }
        }
    return doc


def write_chrome_trace(events: Iterable[dict], path,
                       engine_stats: dict | None = None,
                       attribution: dict | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(chrome_trace(events, engine_stats, attribution),
                   default=_json_default) + "\n"
    )
    return path


def write_trace_files(recorder, out_dir,
                      attribution: dict | None = None) -> dict[str, Path]:
    """Write both serializations of a recorder's stream into ``out_dir``.

    Returns ``{"jsonl": ..., "chrome": ...}``; the fixed file names
    (``trace.jsonl`` / ``trace.json``) keep the CLI, bench scripts and CI
    smoke job pointing at the same artifacts.  ``attribution`` enriches the
    Chrome export with critical-path flow arrows.
    """
    out_dir = Path(out_dir)
    return {
        "jsonl": write_jsonl(recorder.events, out_dir / "trace.jsonl"),
        "chrome": write_chrome_trace(
            recorder.events, out_dir / "trace.json", recorder.engine_stats(),
            attribution,
        ),
    }


# ----------------------------------------------------------------------
# validation (used by the CI smoke job and tests)
# ----------------------------------------------------------------------
def _require(ev: dict, field: str, types, errs: list[str], where: str) -> None:
    if not isinstance(ev.get(field), types):
        errs.append(f"{where}: field {field!r} missing or mistyped ({ev.get(field)!r})")


def validate_chrome_trace(doc) -> list[str]:
    """Check a document against the Chrome Trace Format schema subset we
    emit.  Returns a list of error strings — empty means valid."""
    errs: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be a JSON object, got {type(doc).__name__}"]
    te = doc.get("traceEvents")
    if not isinstance(te, list):
        return ["document must contain a 'traceEvents' array"]
    num = (int, float)
    # flow-event bookkeeping: every id must open with exactly one "s" and
    # close with exactly one "f" (steps "t" in between) — a dangling arrow
    # renders as garbage in Perfetto, so it fails validation here
    flow_phases: dict = {}
    flow_ts: dict = {}
    for i, ev in enumerate(te):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errs.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph == "X":
            _require(ev, "name", str, errs, where)
            _require(ev, "ts", num, errs, where)
            _require(ev, "dur", num, errs, where)
            _require(ev, "pid", int, errs, where)
            _require(ev, "tid", int, errs, where)
            if isinstance(ev.get("dur"), num) and ev["dur"] < 0:
                errs.append(f"{where}: negative duration {ev['dur']!r}")
        elif ph == "i":
            _require(ev, "name", str, errs, where)
            _require(ev, "ts", num, errs, where)
            _require(ev, "pid", int, errs, where)
            if ev.get("s") not in ("g", "p", "t"):
                errs.append(f"{where}: instant scope must be g/p/t, got {ev.get('s')!r}")
        elif ph == "C":
            _require(ev, "name", str, errs, where)
            _require(ev, "ts", num, errs, where)
            _require(ev, "pid", int, errs, where)
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                errs.append(f"{where}: counter needs a non-empty args object")
            elif not all(isinstance(v, num) for v in args.values()):
                errs.append(f"{where}: counter args must be numeric")
        elif ph == "M":
            if ev.get("name") not in ("process_name", "thread_name", "process_labels"):
                errs.append(f"{where}: unknown metadata {ev.get('name')!r}")
            args = ev.get("args")
            if not isinstance(args, dict) or not isinstance(args.get("name"), str):
                errs.append(f"{where}: metadata needs args.name")
        elif ph in ("s", "t", "f"):
            _require(ev, "name", str, errs, where)
            _require(ev, "ts", num, errs, where)
            _require(ev, "pid", int, errs, where)
            _require(ev, "tid", int, errs, where)
            fid = ev.get("id")
            if not isinstance(fid, (int, str)):
                errs.append(f"{where}: flow event needs an id")
            else:
                flow_phases.setdefault(fid, []).append(ph)
                if isinstance(ev.get("ts"), num):
                    flow_ts.setdefault(fid, []).append((ev["ts"], ph))
        else:
            errs.append(f"{where}: unexpected phase {ph!r}")
        if "bind_id" in ev and not (ev.get("flow_in") or ev.get("flow_out")):
            errs.append(f"{where}: bind_id without flow_in/flow_out")
        if isinstance(ev.get("ts"), num) and ev["ts"] < 0:
            errs.append(f"{where}: negative timestamp {ev['ts']!r}")
    for fid, phases in flow_phases.items():
        if phases.count("s") != 1 or phases.count("f") != 1:
            errs.append(
                f"flow id {fid!r}: needs exactly one 's' and one 'f', "
                f"got {phases}"
            )
            continue
        ts = dict((ph, t) for t, ph in flow_ts.get(fid, []))
        if "s" in ts and "f" in ts and ts["f"] < ts["s"]:
            errs.append(f"flow id {fid!r}: finish precedes start")
    return errs
