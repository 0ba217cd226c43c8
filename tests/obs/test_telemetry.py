"""Telemetry collector: bit-identity guarantees, conservation, summaries."""

import json
import pickle

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.faults import FaultPlan, GrantTimeout, RetryPolicy, WorkerBlackout, WorkerCrash
from repro.metrics import compute_metrics
from repro.obs import recorder, telemetry
from repro.scheduler import UrsaConfig, UrsaSystem
from repro.simcore import Simulation
from repro.workloads import submit_workload, tpch_workload

from ..scheduler.reference import ReferenceUrsaSystem


def _small_workload():
    return tpch_workload(
        n_jobs=6, scale=0.02, arrival_interval=0.5, max_parallelism=64,
        partition_mb=12.0, seed=5,
    )


FAULT_PLAN = FaultPlan((
    WorkerBlackout(at=2.0, worker=1, duration=4.0),
    WorkerCrash(at=6.0, worker=2),
    GrantTimeout(at=3.0, worker=0, delay=1.0),
))


def _run(policy="srjf", legacy=False, faults=None, retry=None):
    cluster = Cluster(
        ClusterSpec(num_machines=3, machine=ClusterSpec.paper_cluster().machine)
    )
    system_cls = ReferenceUrsaSystem if legacy else UrsaSystem
    system = system_cls(
        cluster, UrsaConfig(policy=policy, faults=faults, retry=retry)
    )
    submit_workload(system, _small_workload())
    system.run(max_events=50_000_000)
    return pickle.dumps(compute_metrics(system))


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.disable()
    yield
    telemetry.disable()


def test_enable_disable_lifecycle():
    assert telemetry.TELEMETRY is None
    tel = telemetry.enable(interval=0.5)
    assert telemetry.TELEMETRY is tel
    assert tel.interval == 0.5
    assert telemetry.disable() is tel
    assert telemetry.TELEMETRY is None
    assert telemetry.disable() is None  # idempotent


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        telemetry.enable(interval=0.0)


@pytest.mark.parametrize("interval", [float("nan"), float("inf"), float("-inf")])
def test_interval_must_be_finite(interval):
    """NaN and infinite intervals fail at construction, naming the field,
    instead of breaking every resampled series after the run."""
    with pytest.raises(ValueError, match="interval"):
        telemetry.TelemetryCollector(interval)
    with pytest.raises(ValueError, match="interval"):
        telemetry.enable(interval=interval)
    assert telemetry.TELEMETRY is None


def test_disabled_run_collects_nothing():
    _run()
    assert telemetry.TELEMETRY is None


def test_telemetry_on_metrics_bit_identical_to_off():
    """Telemetry is pure observation: enabling it changes no metric byte."""
    base = _run()
    tel = telemetry.enable()
    on = _run()
    telemetry.disable()
    assert on == base
    s = tel.summary()["units"]["run"]
    assert s["counters"]["grants"] > 0
    assert s["counters"]["jobs_completed"] == 6


def test_optimized_and_legacy_emit_identical_telemetry():
    """The reference scheduler flows through the same hooks as the fast
    path, so the whole summary — series included — matches bit-for-bit."""
    tel_opt = telemetry.enable()
    metrics_opt = _run(legacy=False)
    telemetry.disable()
    tel_leg = telemetry.enable()
    metrics_leg = _run(legacy=True)
    telemetry.disable()
    assert metrics_opt == metrics_leg
    assert json.dumps(tel_opt.summary(), sort_keys=True) == json.dumps(
        tel_leg.summary(), sort_keys=True
    )


def test_failure_free_grant_release_conservation():
    tel = telemetry.enable()
    _run()
    telemetry.disable()
    c = tel.summary()["units"]["run"]["counters"]
    assert c["grants"] == c["releases"] + c["aborts"]
    assert c["aborts"] == 0
    assert c["queue_pushes"] == c["queue_pops"] + c["queue_evicted"]


def test_series_are_nonempty_and_exact():
    tel = telemetry.enable()
    _run()
    telemetry.disable()
    s = tel.summary()["units"]["run"]
    cpu = s["utilization"]["cpu"]
    assert cpu["capacity"] > 0
    assert len(cpu["series"]) > 1
    assert cpu["busy_seconds"] > 0.0
    # the series mean (weighted by bin coverage) matches the exact integral
    assert 0.0 < cpu["mean"] < 1.0
    assert s["sim_end"] > 0.0
    assert s["engine_events"] > 0
    assert s["alloc_latency"]["cpu"]["count"] > 0
    assert s["jct"]["count"] == 6


def test_fault_run_conservation_and_fault_metrics():
    """Aborts account for every grant torn down by the fault layer; the
    push/pop/evict identity holds; fault counters are populated."""
    base = _run(policy="ejf", faults=FAULT_PLAN, retry=RetryPolicy(max_attempts=4))
    tel = telemetry.enable()
    on = _run(policy="ejf", faults=FAULT_PLAN, retry=RetryPolicy(max_attempts=4))
    telemetry.disable()
    assert on == base  # telemetry-off bit-identity holds under faults too
    c = tel.summary()["units"]["run"]["counters"]
    assert c["aborts"] > 0
    assert c["grants"] == c["releases"] + c["aborts"]
    assert c["queue_pushes"] == c["queue_pops"] + c["queue_evicted"]
    assert c["monotasks_lost"] > 0
    assert c["retries"] > 0
    assert c["worker_down"] == 2  # blackout + crash
    f = tel.summary()["units"]["run"]["faults"]
    assert f["repair_count"] >= 1  # the blackout rejoined
    assert f["recovery_count"] >= 1 and f["recovery_mean_s"] > 0.0
    assert f["wasted_work_mb"] > 0.0


def test_unit_labels_partition_metrics():
    tel = telemetry.enable()
    tel.begin_unit("a")
    _run()
    tel.begin_unit("b")
    _run(policy="ejf")
    telemetry.disable()
    summary = tel.summary()
    assert set(summary["units"]) == {"a", "b"}
    ca = summary["units"]["a"]["counters"]
    cb = summary["units"]["b"]["counters"]
    assert ca["jobs_completed"] == cb["jobs_completed"] == 6
    assert summary["totals"]["jobs_completed"] == 12
    # the pre-begin_unit "run" placeholder never saw events: dropped
    assert "run" not in summary["units"]


def test_on_unit_end_fires_per_nonempty_unit():
    seen = []
    tel = telemetry.enable()
    tel.on_unit_end = lambda label, s: seen.append((label, s["counters"]["jobs_completed"]))
    tel.begin_unit("a")   # seals empty "run": no callback
    _run()
    tel.begin_unit("b")   # seals "a"
    telemetry.disable()   # seals empty-ish "b"? b saw nothing: no callback
    assert seen == [("a", 6)]


def test_summary_is_json_serializable():
    tel = telemetry.enable()
    _run(policy="ejf", faults=FAULT_PLAN, retry=RetryPolicy(max_attempts=4))
    telemetry.disable()
    text = json.dumps(tel.summary(), sort_keys=True)
    assert json.loads(text)["units"]["run"]["counters"]["grants"] > 0


def test_fold_is_idempotent_and_deferred():
    tel = telemetry.enable()
    seam = recorder.RECORDER
    _run()
    # aggregation deferred while the unit is hot: the seam has folded
    # none of the rows the run appended
    assert seam.rows and not seam._folds
    first = json.dumps(tel.summary(), sort_keys=True)
    assert seam._folded == len(seam.rows)  # folded by the summary
    assert seam.folds()["run"].counters["grants"] > 0
    again = json.dumps(tel.summary(), sort_keys=True)
    telemetry.disable()
    assert first == again


def test_units_are_the_seams_units():
    """The collector keeps no units: a unit with only an engine (no rows)
    is a unit, one with neither is not, and a unit's summary reads the
    seam's engine stats."""
    tel = telemetry.enable()
    seam = recorder.RECORDER
    tel.begin_unit("engine-only")
    sim = Simulation()
    sim.schedule(1.0, lambda: None)
    sim.run(until=2.0)
    tel.begin_unit("empty")
    tel.begin_unit("run-b")
    _run()
    telemetry.disable()
    units = tel.summary()["units"]
    assert list(units) == ["engine-only", "run-b"]
    assert units["engine-only"]["engine_events"] == 1
    assert units["engine-only"]["sim_end"] == 2.0
    engines = seam.engine_stats()
    assert [units["run-b"]["engine_events"], units["run-b"]["sim_end"]] == engines["run-b"]
