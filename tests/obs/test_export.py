"""JSONL round-trip, Chrome Trace structure, and schema validation."""

import json

import numpy as np
import pytest

from repro.dataflow import ResourceType
from repro.obs import events as ev
from repro.obs import (
    TraceRecorder,
    chrome_trace,
    read_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_trace_files,
)


def _e(kind, t, **fields):
    fields.update(t=t, kind=kind, unit=fields.pop("unit", "run"))
    return fields


def _lifecycle_events():
    """A tiny hand-built stream: one queued monotask, one bypass transfer,
    one placement, plus the job bookends."""
    return [
        _e(ev.JOB_SUBMIT, 0.0, job=0, name="tpch", mem_mb=128.0, qlen=1),
        _e(ev.JOB_ADMIT, 0.25, job=0, waited=0.25, reserved_mb=128.0),
        _e(ev.TASK_READY, 0.5, job=0, task=1, stage=0, n_mt=2, input_mb=4.0),
        _e(ev.SCHED_TICK, 0.75, assigned=1),
        _e(ev.TASK_PLACED, 0.75, job=0, task=1, worker=0, score=1.5, n_mt=2),
        _e(ev.QUEUE_PUSH, 0.75, worker=0, rtype="cpu", job=0, mt=10, qlen=1),
        _e(ev.QUEUE_POP, 1.0, worker=0, rtype="cpu", job=0, mt=10, qlen=0),
        _e(ev.MT_START, 1.0, worker=0, rtype="cpu", job=0, mt=10, running=1,
           bypass=False),
        _e(ev.MT_START, 1.0, worker=0, rtype="network", job=0, mt=11,
           running=1, bypass=True),
        _e(ev.RES_RELEASE, 2.0, worker=0, rtype="cpu", mt=10, running=0),
        _e(ev.MT_FINISH, 2.0, job=0, task=1, mt=10, rtype="cpu", worker=0),
        _e(ev.MT_FINISH, 2.5, job=0, task=1, mt=11, rtype="network", worker=0),
        _e(ev.TASK_FINISH, 2.5, job=0, task=1, worker=0),
        _e(ev.JOB_FINISH, 2.5, job=0, jct=2.5),
    ]


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def test_jsonl_round_trip(tmp_path):
    events = _lifecycle_events()
    path = write_jsonl(events, tmp_path / "t.jsonl")
    assert list(read_trace(path)) == events


def test_jsonl_coerces_numpy_scalars(tmp_path):
    events = [
        _e(ev.TASK_READY, np.float64(1.5), job=np.int64(0), task=2,
           stage=0, n_mt=1, input_mb=np.float32(8.0)),
    ]
    path = write_jsonl(events, tmp_path / "np.jsonl")
    back = list(read_trace(path))
    assert back[0]["t"] == 1.5
    assert back[0]["job"] == 0
    assert back[0]["input_mb"] == pytest.approx(8.0)
    # plain json types after the round trip
    assert type(back[0]["job"]) is int


def test_jsonl_creates_parent_dirs(tmp_path):
    path = write_jsonl([], tmp_path / "a" / "b" / "t.jsonl")
    assert path.exists()
    assert list(read_trace(path)) == []


# ----------------------------------------------------------------------
# Chrome Trace structure
# ----------------------------------------------------------------------
def test_chrome_trace_slices_match_start_finish_pairs():
    doc = chrome_trace(_lifecycle_events())
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == 2  # mt 10 (queued cpu) + mt 11 (bypass network)
    by_mt = {s["args"]["mt"]: s for s in slices}
    cpu = by_mt[10]
    assert cpu["cat"] == "cpu"
    assert cpu["ts"] == pytest.approx(1.0e6)  # seconds -> microseconds
    assert cpu["dur"] == pytest.approx(1.0e6)
    assert cpu["args"]["bypass"] is False
    net = by_mt[11]
    assert net["cat"] == "network"
    assert net["args"]["bypass"] is True
    # worker 0: tid = 1 + worker*3 + {cpu:0, network:1}
    assert cpu["tid"] == 1
    assert net["tid"] == 2


def test_chrome_trace_unmatched_finish_is_skipped():
    doc = chrome_trace([
        _e(ev.MT_FINISH, 2.0, job=0, task=1, mt=99, rtype="cpu", worker=0),
    ])
    assert [e for e in doc["traceEvents"] if e["ph"] == "X"] == []


def test_chrome_trace_one_pid_per_unit_in_first_seen_order():
    events = [
        _e(ev.SCHED_TICK, 0.0, assigned=0, unit="ursa:a"),
        _e(ev.SCHED_TICK, 0.0, assigned=0, unit="yarn:b"),
        _e(ev.SCHED_TICK, 1.0, assigned=1, unit="ursa:a"),
    ]
    doc = chrome_trace(events)
    procs = [
        e for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    ]
    assert [(p["pid"], p["args"]["name"]) for p in procs] == [
        (1, "ursa:a"), (2, "yarn:b"),
    ]
    ticks = [e for e in doc["traceEvents"] if e.get("name") == "sched_tick"]
    assert [t["pid"] for t in ticks] == [1, 2, 1]


def test_chrome_trace_metadata_and_counters():
    doc = chrome_trace(_lifecycle_events())
    te = doc["traceEvents"]
    thread_names = {
        (e["pid"], e["tid"]): e["args"]["name"]
        for e in te if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert thread_names[(1, 0)] == "scheduler"
    assert thread_names[(1, 1)] == "w0 cpu"
    assert thread_names[(1, 2)] == "w0 network"
    counters = [e for e in te if e["ph"] == "C"]
    names = {c["name"] for c in counters}
    assert "w0 cpu queued" in names
    assert "w0 cpu running" in names
    instants = [e for e in te if e["ph"] == "i"]
    assert any(e["name"].startswith("place ") for e in instants)
    assert all(e["s"] in ("g", "p", "t") for e in instants)
    assert doc["displayTimeUnit"] == "ms"


def test_chrome_trace_engine_stats_in_other_data():
    doc = chrome_trace([], engine_stats={"run": [42, 3.5]})
    assert doc["otherData"]["engine"]["run"] == {
        "events_fired": 42, "sim_end": 3.5,
    }
    assert "otherData" not in chrome_trace([])


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def test_validate_accepts_our_own_export():
    assert validate_chrome_trace(chrome_trace(_lifecycle_events())) == []


def test_validate_rejects_corruption():
    good = chrome_trace(_lifecycle_events())

    def corrupt(mutate):
        doc = json.loads(json.dumps(good, default=lambda o: o))
        mutate(doc["traceEvents"])
        return validate_chrome_trace(doc)

    def neg_dur(te):
        next(e for e in te if e["ph"] == "X")["dur"] = -5.0

    def bad_phase(te):
        te[0]["ph"] = "Z"

    def missing_ts(te):
        del next(e for e in te if e["ph"] == "i")["ts"]

    def bad_scope(te):
        next(e for e in te if e["ph"] == "i")["s"] = "x"

    def string_counter(te):
        next(e for e in te if e["ph"] == "C")["args"] = {"depth": "three"}

    def nameless_meta(te):
        next(e for e in te if e["ph"] == "M")["args"] = {}

    for mutate in (neg_dur, bad_phase, missing_ts, bad_scope,
                   string_counter, nameless_meta):
        errs = corrupt(mutate)
        assert errs, f"{mutate.__name__} not caught"


def _flow(ph, fid, ts, **extra):
    e = {"ph": ph, "name": "critical_path", "cat": "critpath",
         "pid": 1, "tid": 1, "id": fid, "ts": ts}
    e.update(extra)
    return e


def test_validate_accepts_matched_flow_pair():
    doc = chrome_trace(_lifecycle_events())
    doc["traceEvents"].extend(
        [_flow("s", 7, 100.0), _flow("f", 7, 200.0, bp="e")]
    )
    assert validate_chrome_trace(doc) == []


def test_validate_rejects_dangling_flow_arrows():
    base = chrome_trace(_lifecycle_events())["traceEvents"]
    # start without finish
    doc = {"traceEvents": base + [_flow("s", 1, 100.0)]}
    assert any("flow id 1" in e for e in validate_chrome_trace(doc))
    # finish without start
    doc = {"traceEvents": base + [_flow("f", 2, 100.0)]}
    assert any("flow id 2" in e for e in validate_chrome_trace(doc))
    # duplicated start
    doc = {"traceEvents": base + [_flow("s", 3, 100.0), _flow("s", 3, 150.0),
                                  _flow("f", 3, 200.0)]}
    assert any("flow id 3" in e for e in validate_chrome_trace(doc))


def test_validate_rejects_backward_flow():
    doc = {"traceEvents": [_flow("s", 9, 200.0), _flow("f", 9, 100.0)]}
    assert any("finish precedes start" in e for e in validate_chrome_trace(doc))


def test_validate_rejects_flow_event_without_id():
    e = _flow("s", 0, 100.0)
    del e["id"]
    errs = validate_chrome_trace({"traceEvents": [e]})
    assert any("needs an id" in err for err in errs)


def test_validate_rejects_stray_bind_id():
    doc = chrome_trace(_lifecycle_events())
    next(e for e in doc["traceEvents"] if e["ph"] == "X")["bind_id"] = 42
    assert any("bind_id" in e for e in validate_chrome_trace(doc))


def test_validate_rejects_non_object_documents():
    assert validate_chrome_trace([1, 2]) != []
    assert validate_chrome_trace({"notTraceEvents": []}) != []
    assert validate_chrome_trace({"traceEvents": [17]}) != []


# ----------------------------------------------------------------------
# write_trace_files
# ----------------------------------------------------------------------
def _record_lifecycle(rec: TraceRecorder) -> None:
    """Record :func:`_lifecycle_events` through the typed hooks (queue rows
    carry their trailing queued-MB field)."""
    cpu, net = ResourceType.CPU, ResourceType.NETWORK
    rec.job_submit(0.0, 0, "tpch", 128.0, 1)
    rec.job_admit(0.25, 0, 0.25, 128.0)
    rec.task_ready(0.5, 0, 1, 0, 2, 4.0)
    rec.sched_tick(0.75, 1)
    rec.task_placed(0.75, 0, 1, 0, 1.5, 2)
    rec.queue_push(0.75, 0, cpu, 0, 10, 1, 4.0)
    rec.queue_pop(1.0, 0, cpu, 0, 10, 0, 0.0)
    rec.mt_start(1.0, 0, cpu, 0, 10, 1, False)
    rec.mt_start(1.0, 0, net, 0, 11, 1, True)
    rec.res_release(2.0, 0, cpu, 10, 0)
    rec.mt_finish(2.0, 0, 1, 10, cpu, 0)
    rec.mt_finish(2.5, 0, 1, 11, net, 0)
    rec.task_finish(2.5, 0, 1, 0)
    rec.job_finish(2.5, 0, 2.5)


def test_write_trace_files_emits_both_artifacts(tmp_path):
    rec = TraceRecorder()
    _record_lifecycle(rec)
    assert list(rec.events) == _lifecycle_events()
    out = write_trace_files(rec, tmp_path / "traces")
    assert out["jsonl"].name == "trace.jsonl"
    assert out["chrome"].name == "trace.json"
    assert read_trace(out["jsonl"]) == rec.events
    doc = json.loads(out["chrome"].read_text())
    assert validate_chrome_trace(doc) == []
