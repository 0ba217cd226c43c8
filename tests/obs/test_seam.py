"""The observation seam: one row log behind the trace, telemetry and analysis."""

import json

import pytest

from repro.obs import events as ev
from repro.obs import recorder, telemetry
from repro.obs.attribution import attribute, attribution_digest
from repro.obs.export import read_trace, write_jsonl, write_trace_files
from repro.obs.latency import derive_latency
from repro.experiments import fig_service
from repro.experiments.common import SCALES

from .test_trace_pins import _faulted


@pytest.fixture(autouse=True)
def _clean():
    telemetry.disable()
    recorder.disable()
    yield
    telemetry.disable()
    recorder.disable()


def _traced(order=("trace", "telemetry")):
    on = {"trace": recorder.enable, "telemetry": telemetry.enable}
    for sink in order:
        on[sink]()
    rec, tel = recorder.RECORDER, telemetry.TELEMETRY
    _faulted()
    telemetry.disable()
    recorder.disable()
    return rec, tel


def test_live_view_and_reread_jsonl_reach_the_same_parser(tmp_path):
    rec, _ = _traced()
    reread = read_trace(write_jsonl(rec.events, tmp_path / "trace.jsonl"))
    assert reread == rec.events
    assert attribution_digest(attribute(rec.events)) == \
        attribution_digest(attribute(reread))
    assert derive_latency(rec.events.folds()) == derive_latency(reread.folds())


def test_enable_order_does_not_matter():
    rec_a, tel_a = _traced(("trace", "telemetry"))
    rec_b, tel_b = _traced(("telemetry", "trace"))
    assert rec_a.events == rec_b.events
    assert json.dumps(tel_a.summary(), sort_keys=True) == \
        json.dumps(tel_b.summary(), sort_keys=True)


def test_telemetry_alone_records_rows_but_no_trace():
    tel = telemetry.enable()
    seam = recorder.RECORDER
    assert seam is not None and not recorder.tracing()
    _faulted()
    assert seam.rows and len(seam.events) == 0
    assert recorder.disable() is None  # no trace was requested
    assert telemetry.disable() is tel
    assert recorder.RECORDER is None
    assert tel.summary()["totals"]["grants"] > 0


def _same_trace(rec, alone):
    assert rec.events == alone.events
    assert attribution_digest(attribute(rec.events)) == \
        attribution_digest(attribute(alone.events))
    assert derive_latency(rec.events.folds()) == derive_latency(alone.events.folds())


def _telemetry_of_two_runs() -> str:
    tel = telemetry.enable()
    _faulted()
    _faulted()
    telemetry.disable()
    return json.dumps(tel.summary(), sort_keys=True)


def test_trace_stops_at_disable_while_telemetry_continues():
    rec = recorder.enable()
    tel = telemetry.enable()
    _faulted()
    assert recorder.disable() is rec
    assert recorder.RECORDER is rec  # still feeding telemetry
    n = len(rec.events)
    _faulted()
    assert len(rec.events) == n
    telemetry.disable()
    assert recorder.RECORDER is None
    assert tel.summary()["totals"]["jobs_submitted"] == 12
    _same_trace(rec, _traced(("trace",))[0])  # the first run alone
    assert json.dumps(tel.summary(), sort_keys=True) == _telemetry_of_two_runs()


def test_a_trace_starts_on_the_seam_telemetry_holds():
    tel = telemetry.enable()
    seam = recorder.RECORDER
    _faulted()
    rec = recorder.enable()
    assert rec is seam and recorder.tracing()
    assert len(rec.events) == 0  # the trace starts at the seam's next row
    _faulted()
    recorder.disable()
    telemetry.disable()
    _same_trace(rec, _traced(("trace",))[0])  # the second run alone
    # telemetry kept every row it saw
    assert json.dumps(tel.summary(), sort_keys=True) == _telemetry_of_two_runs()


def test_view_indexes_like_a_list_around_telemetry_only_rows():
    rec, _ = _traced()
    # telemetry-only rows sit between trace rows
    assert any(row[0] in ev.TELEMETRY_ONLY for row in rec.rows)
    events = list(rec.events)
    assert len(rec.events) == len(events)
    for i in (0, 1, len(events) // 2, len(events) - 1, -1, -len(events)):
        assert rec.events[i] == events[i]
    assert rec.events[5:9] == events[5:9]
    with pytest.raises(IndexError):
        rec.events[len(events)]
    assert {e["kind"] for e in events} <= ev.ALL_KINDS


def test_shuffle_parent_ids_are_shared_not_copied():
    rec, _ = _traced()
    seen: dict = {}
    consumers = 0
    for row in rec.rows:
        if row[0] != ev.TASK_DEPS:
            continue
        for parents in (m[4] for m in row[4]):
            if len(parents) > 1:
                # one tuple per (job, shuffle block), whatever the consumers
                assert seen.setdefault((row[2], parents), parents) is parents
                consumers += 1
    assert consumers > len(seen)



def test_chrome_engine_block_and_telemetry_read_one_registration(tmp_path):
    """A service unit without the autoscaler ends through ``run(until=...)``
    after its last event: the Chrome trace reports the engine clock there,
    as telemetry does, not the time of the last event fired."""
    rec = recorder.enable()
    tel = telemetry.enable()
    fig_service.run_unit(SCALES["tiny"], "poisson-x2.0-noscale", seed=0)
    telemetry.disable()
    recorder.disable()
    paths = write_trace_files(rec, tmp_path)
    (engine,) = json.loads(paths["chrome"].read_text())["otherData"]["engine"].values()
    (unit,) = tel.summary()["units"].values()
    assert [engine["events_fired"], engine["sim_end"]] == \
        [unit["engine_events"], unit["sim_end"]]
    assert unit["sim_end"] > max(row[1] for row in rec.rows)
