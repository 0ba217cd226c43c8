"""Recorder semantics and the tracing-is-pure-observation guarantee."""

import pickle

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.metrics import compute_metrics
from repro.obs import events as ev
from repro.obs import recorder
from repro.scheduler import UrsaConfig, UrsaSystem
from repro.simcore import Simulation
from repro.workloads import submit_workload, tpch_workload

from ..scheduler.reference import ReferenceUrsaSystem


def _small_workload():
    return tpch_workload(
        n_jobs=6, scale=0.02, arrival_interval=0.5, max_parallelism=64,
        partition_mb=12.0, seed=5,
    )


def _run(policy="srjf", legacy=False):
    cluster = Cluster(
        ClusterSpec(num_machines=3, machine=ClusterSpec.paper_cluster().machine)
    )
    system_cls = ReferenceUrsaSystem if legacy else UrsaSystem
    system = system_cls(cluster, UrsaConfig(policy=policy))
    submit_workload(system, _small_workload())
    system.run(max_events=50_000_000)
    assert system.all_done
    return pickle.dumps(compute_metrics(system))


@pytest.fixture(autouse=True)
def _clean_recorder():
    recorder.disable()
    yield
    recorder.disable()


def test_enable_disable_lifecycle():
    assert recorder.RECORDER is None
    rec = recorder.enable()
    assert recorder.RECORDER is rec
    assert len(rec.events) == 0
    assert recorder.disable() is rec
    assert recorder.RECORDER is None
    assert recorder.disable() is None  # idempotent


def test_disabled_run_records_nothing():
    _run()
    assert recorder.RECORDER is None


def test_traced_metrics_bit_identical_to_untraced():
    """Tracing is pure observation: enabling it changes no metric byte."""
    base = _run()
    rec = recorder.enable()
    traced = _run()
    recorder.disable()
    assert traced == base
    assert len(rec.events) > 0


def test_optimized_and_legacy_emit_identical_event_streams():
    """The satellite-2 seam: worker grants/releases flow through one hook,
    so the reference scheduler traces identically to the fast path."""
    rec_opt = recorder.enable()
    metrics_opt = _run(legacy=False)
    recorder.disable()
    rec_leg = recorder.enable()
    metrics_leg = _run(legacy=True)
    recorder.disable()
    assert metrics_opt == metrics_leg
    assert rec_opt.events == rec_leg.events


#: kinds only the fault layer emits (covered by tests/faults, which runs a
#: crash/blackout/timeout plan and asserts full ALL_KINDS coverage)
FAULT_KINDS = frozenset({ev.WORKER_DOWN, ev.WORKER_UP, ev.MT_LOST, ev.RETRY})


def test_event_stream_covers_every_failure_free_kind():
    rec = recorder.enable()
    _run()
    recorder.disable()
    kinds = {e["kind"] for e in rec.events}
    assert kinds == ev.ALL_KINDS - FAULT_KINDS


def test_events_are_schema_dicts_with_sim_timestamps():
    rec = recorder.enable()
    _run()
    recorder.disable()
    last_by_unit: dict = {}
    for e in rec.events:
        assert e["kind"] in ev.ALL_KINDS
        assert e["t"] >= 0.0
        assert e["unit"] == "run"  # no begin_unit() called
        # emission order is simulation order within a unit
        assert e["t"] >= last_by_unit.get(e["unit"], 0.0)
        last_by_unit[e["unit"]] = e["t"]
    rtypes = {e["rtype"] for e in rec.events if "rtype" in e}
    assert rtypes <= {"cpu", "network", "disk"}


def test_indexing_the_view_builds_only_the_one_event(monkeypatch):
    rec = recorder.enable()
    _run()
    recorder.disable()
    events = list(rec.events)
    built = []
    real = ev.event_from_row
    monkeypatch.setattr(ev, "event_from_row", lambda *a: built.append(a) or real(*a))
    for i in (0, len(events) // 2, len(events) - 1):
        built.clear()
        assert rec.events[i] == events[i]
        assert len(built) == 1
    with pytest.raises(IndexError):
        rec.events[len(events)]


def test_begin_unit_labels_subsequent_events():
    rec = recorder.enable()
    rec.sched_tick(0.0, 0)
    rec.begin_unit("exp:key1")
    rec.sched_tick(1.0, 0)
    assert [e["unit"] for e in rec.events] == ["run", "exp:key1"]


def test_engine_registration_counts_fired_events():
    rec = recorder.enable()
    sim = Simulation()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.5, lambda: None)
    sim.drain()
    recorder.disable()
    assert rec.engine_stats() == {"run": [2, 2.5]}


def test_engine_is_registered_only_while_enabled_with_no_per_event_hook():
    sim_off = Simulation()
    rec = recorder.enable()
    sim_on = Simulation()
    # registration is the whole hook: both engines carry the same state, so
    # the step loop cannot treat them differently
    assert vars(sim_on).keys() == vars(sim_off).keys()
    for sim in (sim_off, sim_on):
        sim.schedule(1.0, lambda: None)
        sim.drain()
    # read off the engine when asked: the unit's stats follow it live
    assert rec.engine_stats() == {"run": [1, 1.0]}
    sim_on.schedule(1.0, lambda: None)
    sim_on.run(until=3.0)
    assert rec.engine_stats() == {"run": [2, 3.0]}
    recorder.disable()
    # sealed on the way out: the engine no longer counts
    sim_on.schedule(1.0, lambda: None)
    sim_on.drain()
    assert rec.engine_stats() == {"run": [2, 3.0]}


def test_engine_stats_sum_events_and_take_the_latest_clock_per_unit():
    rec = recorder.enable()
    for end in (2.0, 5.0, 3.0):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        sim.run(until=end)
    rec.begin_unit("next")
    sim = Simulation()
    sim.schedule(0.5, lambda: None)
    sim.drain()
    recorder.disable()
    assert rec.engine_stats() == {"run": [3, 5.0], "next": [1, 0.5]}


def test_placement_scores_are_recorded():
    """task_placed carries the winning F(t,w); finite and non-negative."""
    rec = recorder.enable()
    _run()
    recorder.disable()
    placed = [e for e in rec.events if e["kind"] == ev.TASK_PLACED]
    assert placed
    for e in placed:
        assert e["score"] >= 0.0
        assert e["worker"] >= 0
        assert e["n_mt"] >= 1


def test_bypass_lane_flagged_in_mt_start():
    rec = recorder.enable()
    _run()
    recorder.disable()
    starts = [e for e in rec.events if e["kind"] == ev.MT_START]
    assert starts
    queued_ids = {
        (e["unit"], e["job"], e["mt"])
        for e in rec.events
        if e["kind"] == ev.QUEUE_PUSH
    }
    for e in starts:
        was_queued = (e["unit"], e["job"], e["mt"]) in queued_ids
        assert e["bypass"] == (not was_queued)
        if e["bypass"]:
            assert e["rtype"] == "network"  # only small transfers bypass
