"""Critical-path attribution invariants: the sum-to-JCT identity, segment
tiling, cross-engine digest pins, and the idle-time blame ledger."""

import contextlib
import io
import pickle
import sys
from pathlib import Path

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.metrics import compute_metrics
from repro.obs import attribution as attr_mod
from repro.obs import recorder
from repro.obs.critpath import critical_path, parse_events
from repro.scheduler import UrsaConfig, UrsaSystem
from repro.workloads import submit_workload, tpch_workload

from ..scheduler.reference import ReferenceUrsaSystem, spread

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
import trace_analyze  # noqa: E402


def _small_workload():
    return tpch_workload(
        n_jobs=6, scale=0.02, arrival_interval=0.5, max_parallelism=64,
        partition_mb=12.0, seed=5,
    )


def _run(policy="srjf", legacy=False, wide=False):
    spec = ClusterSpec(num_machines=3, machine=ClusterSpec.paper_cluster().machine)
    cluster = Cluster(spread(spec) if wide else spec)
    system_cls = ReferenceUrsaSystem if legacy else UrsaSystem
    system = system_cls(cluster, UrsaConfig(policy=policy))
    submit_workload(system, _small_workload())
    system.run(max_events=50_000_000)
    assert system.all_done
    return pickle.dumps(compute_metrics(system))


def _traced_run(**kw):
    rec = recorder.enable()
    metrics = _run(**kw)
    recorder.disable()
    return rec, metrics


@pytest.fixture(autouse=True)
def _clean_recorder():
    recorder.disable()
    yield
    recorder.disable()


# ----------------------------------------------------------------------
# the sum-to-JCT identity
# ----------------------------------------------------------------------
def test_every_ledger_sums_to_jct():
    rec, _ = _traced_run()
    result = attr_mod.attribute(rec.events)
    assert attr_mod.validate(result) == []
    jobs = [
        entry
        for unit in result["units"].values()
        for entry in unit["jobs"].values()
    ]
    assert len(jobs) == 6
    for entry in jobs:
        # far tighter than the 1e-9 CI gate: the segments tile [submit,
        # finish], so the sum telescopes to JCT up to float associativity
        assert attr_mod.sum_error(entry) < 1e-12
        assert all(v >= 0.0 for v in entry["ledger"].values())


def test_critical_path_segments_tile_the_jct_window():
    rec, _ = _traced_run()
    units = parse_events(rec.events.unit_runs())
    (unit,) = units.values()
    for job in unit.jobs.values():
        segs = critical_path(unit, job)
        assert segs, "completed job must have a non-empty critical path"
        assert segs[0]["t0"] == job.submit_t
        assert segs[-1]["t1"] == job.finish_t
        for a, b in zip(segs, segs[1:]):
            assert a["t1"] == b["t0"]  # contiguous, no gaps or overlap
        for seg in segs:
            assert seg["t0"] < seg["t1"]
            assert seg["label"] in attr_mod.CATEGORIES


def test_validate_flags_broken_ledger():
    rec, _ = _traced_run()
    result = attr_mod.attribute(rec.events)
    (unit,) = result["units"].values()
    jid = next(iter(unit["jobs"]))
    unit["jobs"][jid]["ledger"]["compute"] += 1.0
    errs = attr_mod.validate(result)
    assert len(errs) == 1 and f"job {jid}" in errs[0]


# ----------------------------------------------------------------------
# cross-engine digest pins
# ----------------------------------------------------------------------
def test_attribution_identical_optimized_vs_legacy_tick():
    rec_opt, _ = _traced_run(legacy=False)
    rec_leg, _ = _traced_run(legacy=True)
    d_opt = attr_mod.attribution_digest(attr_mod.attribute(rec_opt.events))
    d_leg = attr_mod.attribution_digest(attr_mod.attribute(rec_leg.events))
    assert d_opt == d_leg


def test_attribution_identical_scalar_vs_vector_placement():
    """With the 3 machines' cores and memory spread over 32 workers, the
    engine and the legacy tick give byte-identical attributions."""
    rec_opt, _ = _traced_run(wide=True)
    rec_leg, _ = _traced_run(legacy=True, wide=True)
    d_opt = attr_mod.attribution_digest(attr_mod.attribute(rec_opt.events))
    d_leg = attr_mod.attribution_digest(attr_mod.attribute(rec_leg.events))
    assert d_opt == d_leg


def test_render_json_round_trips_and_digest_is_stable():
    rec, _ = _traced_run()
    result = attr_mod.attribute(rec.events)
    import json

    assert json.loads(attr_mod.render_json(result)) == result
    # pickling the events (what the parallel runner ships) must not change
    # a byte of the artifact
    thawed = pickle.loads(pickle.dumps(rec.events))
    assert attr_mod.render_json(attr_mod.attribute(thawed)) == \
        attr_mod.render_json(result)


def test_serial_vs_parallel_attribution_byte_identical():
    """Pool workers record locally and the parent splices the streams in
    submission order, so the attribution artifact must not differ by a
    byte between workers=0 and a real process pool."""
    from repro.experiments.common import SCALES
    from repro.perf import ParallelRunner

    def traced(workers):
        rec = recorder.enable()
        try:
            runner = ParallelRunner(workers=workers)
            with contextlib.redirect_stdout(io.StringIO()):
                runner.run("fig8", SCALES["tiny"])
        finally:
            recorder.disable()
        return rec

    rec_s, rec_p = traced(0), traced(2)
    assert rec_s.events == rec_p.events
    text_s = attr_mod.render_json(attr_mod.attribute(rec_s.events))
    text_p = attr_mod.render_json(attr_mod.attribute(rec_p.events))
    assert text_s == text_p


# ----------------------------------------------------------------------
# analysis is pure observation
# ----------------------------------------------------------------------
def test_analysis_does_not_perturb_metrics_or_events():
    base = _run()
    rec, traced = _traced_run()
    assert traced == base  # tracing itself is bit-neutral
    frozen = pickle.dumps(rec.events)
    attr_mod.attribute(rec.events)
    assert pickle.dumps(rec.events) == frozen  # attribute() is read-only


# ----------------------------------------------------------------------
# idle-time blame ledger
# ----------------------------------------------------------------------
def test_idle_blame_bounded_by_capacity():
    rec, _ = _traced_run()
    result = attr_mod.attribute(rec.events)
    (unit,) = result["units"].values()
    idle = unit["idle"]
    assert idle["per_worker"], "Ursa unit must expose per-worker ledgers"
    for rtype in attr_mod.RTYPES:
        total_idle = sum(idle["totals"][rtype].values())
        cap = idle["capacity_seconds"][rtype]
        assert cap > 0
        assert 0.0 <= total_idle <= cap + 1e-9
        per_worker_sum = sum(
            sum(w[rtype].values()) for w in idle["per_worker"].values()
        )
        assert per_worker_sum == pytest.approx(total_idle, abs=1e-9)


def test_idle_blame_distinguishes_no_work_from_blocked():
    """With a tiny trickled workload both 'no spare work anywhere' and
    'work existed but policy kept it off this slot' must show up."""
    rec, _ = _traced_run()
    result = attr_mod.attribute(rec.events)
    (unit,) = result["units"].values()
    causes = unit["idle"]["totals"]["cpu"]
    assert causes["no_work"] > 0.0
    assert causes["blocked_policy"] > 0.0
    assert causes["fault_down"] == 0.0  # failure-free run


def test_flow_enriched_chrome_trace_validates():
    """--analyze enriches trace.json with critical-path flow arrows; every
    arrow must be a matched s/f pair anchored to real run slices."""
    from repro.obs import chrome_trace, validate_chrome_trace

    rec, _ = _traced_run()
    attr = attr_mod.attribute(rec.events)
    doc = chrome_trace(rec.events, attribution=attr)
    assert validate_chrome_trace(doc) == []
    flows = [e for e in doc["traceEvents"] if e["ph"] in ("s", "f")]
    assert flows, "multi-monotask critical paths must emit flow arrows"
    assert {e["ph"] for e in flows} == {"s", "f"}


# ----------------------------------------------------------------------
# reporting helpers
# ----------------------------------------------------------------------
def test_top_jobs_sorted_by_jct_desc():
    rec, _ = _traced_run()
    result = attr_mod.attribute(rec.events)
    rows = attr_mod.top_jobs(result, n=3)
    assert len(rows) == 3
    jcts = [entry["jct"] for _, _, entry in rows]
    assert jcts == sorted(jcts, reverse=True)


def test_top_jobs_rejects_a_negative_count():
    result = {"units": {"u": {"jobs": {str(j): {"jct": float(j)} for j in range(4)}}}}
    assert attr_mod.top_jobs(result, n=0) == []
    with pytest.raises(ValueError, match="non-negative"):
        attr_mod.top_jobs(result, n=-2)


def test_trace_analyze_rejects_a_negative_top(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("")
    with pytest.raises(SystemExit) as exc:
        trace_analyze.main([str(trace), "--top", "-2"])
    assert exc.value.code == 2
    assert "--top" in capsys.readouterr().err
