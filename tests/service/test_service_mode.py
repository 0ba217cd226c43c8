"""Open-loop driver integration: accounting, elasticity, reproducibility.

Runs use a shrunken tiny-derived scale (3-job horizon ≈ 11 s of simulated
time) so the whole module stays CI-fast while exercising the real
admission/placement stack end to end.
"""

import pickle
from dataclasses import replace

import pytest

from repro.experiments import fig_service
from repro.experiments.common import SCALES
from repro.obs import telemetry
from repro.perf import ParallelRunner
from repro.service import validate_report

SMALL = replace(SCALES["tiny"], name="svc-test", n_jobs=3)


def _run(key, seed=0):
    return fig_service.run_unit(SMALL, key, seed=seed)


def test_overload_sheds_and_the_accounting_identity_holds():
    rep = _run("poisson-x2.0")
    c = rep["counts"]
    assert c["generated"] == c["shed"] + c["completed"] + c["failed"] + c["in_flight"]
    assert c["shed"] > 0, "2× the base rate must trigger backpressure"
    assert rep["backpressure"]["peak_queue"] <= rep["backpressure"]["queue_limit"]
    assert validate_report(rep) == []


def test_stable_load_sheds_nothing_and_stays_low_latency():
    rep = _run("poisson-x0.5")
    assert rep["counts"]["shed"] == 0
    assert rep["counts"]["completed"] > 0
    assert rep["window"]["latency_p50_s"] <= rep["window"]["latency_p99_s"]
    assert validate_report(rep) == []


def test_autoscaler_respects_bounds_and_never_evicts_work():
    tel = telemetry.enable()
    try:
        rep = _run("diurnal-x1.0")
    finally:
        telemetry.disable()
    a = rep["autoscaler"]
    assert a["enabled"]
    cfg = fig_service.service_config(SMALL, elastic=True).autoscaler
    assert cfg.min_workers <= a["min_active"]
    assert a["max_active"] <= cfg.max_workers
    assert cfg.min_workers <= a["final_active"] <= cfg.max_workers
    assert a["min_active"] <= a["mean_active"] <= a["max_active"]
    # scale-in is a graceful drain: no retries, no lost monotasks, no
    # wasted (re-executed) work may ever be charged to elasticity
    totals = tel.summary()["totals"]
    assert totals["retries"] == 0
    assert totals["monotasks_lost"] == 0
    assert totals["wasted_work_mb"] == 0.0
    assert totals["autoscale_up"] == a["scale_ups"]
    assert totals["autoscale_down"] == a["scale_downs"]


def test_noscale_unit_keeps_the_full_fleet():
    rep = _run("poisson-x2.0-noscale")
    a = rep["autoscaler"]
    n = SMALL.cluster.num_machines
    assert not a["enabled"]
    assert a["scale_ups"] == a["scale_downs"] == 0
    assert a["min_active"] == a["max_active"] == a["final_active"] == n
    assert a["mean_active"] == float(n)


def test_reports_are_deterministic_and_seed_sensitive():
    a = _run("bursty-x1.0", seed=0)
    b = _run("bursty-x1.0", seed=0)
    assert pickle.dumps(a) == pickle.dumps(b)
    c = _run("bursty-x1.0", seed=1)
    assert a["counts"]["generated"] != c["counts"]["generated"] or a != c


def test_telemetry_does_not_perturb_the_report():
    off = _run("poisson-x1.0")
    telemetry.enable()
    try:
        on = _run("poisson-x1.0")
    finally:
        telemetry.disable()
    assert pickle.dumps(off) == pickle.dumps(on)


def test_sweep_is_byte_identical_serial_vs_parallel(tmp_path, capsys):
    r_serial = ParallelRunner(workers=0).run_many(["fig_service"], SMALL, seed=0)
    r_parallel = ParallelRunner(workers=2).run_many(["fig_service"], SMALL, seed=0)
    capsys.readouterr()
    assert pickle.dumps(r_serial["fig_service"]) == pickle.dumps(
        r_parallel["fig_service"]
    )
    for key, rep in r_serial["fig_service"].items():
        assert validate_report(rep) == [], key
    assert set(r_serial["fig_service"]) == set(fig_service.UNITS)
