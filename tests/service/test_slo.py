"""SLO report assembly: warmup exclusion, identities, schema validation."""

from dataclasses import dataclass
from typing import Optional

import pytest

from repro.service import PoissonArrivals, ServiceConfig, validate_report
from repro.service.arrivals import Arrival
from repro.service.driver import _ArrivalRecord
from repro.service.slo import DISABLED_AUTOSCALER, SCHEMA, assemble_report

CFG = ServiceConfig(horizon=10.0, warmup=2.0, drain_grace=5.0, queue_limit=4)
PROCESS = PoissonArrivals(rate_per_s=1.0, n_tenants=10)


@dataclass
class _FakeJob:
    """The slice of the Job API the report assembler reads."""

    submit_time: float
    finish_time: Optional[float] = None
    admit_time: Optional[float] = None
    failed: bool = False

    @property
    def done(self) -> bool:
        return self.finish_time is not None and not self.failed

    @property
    def jct(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time


def _submitted(index, t, job_id, tenant=0):
    return _ArrivalRecord(Arrival(index, t, tenant, 2), job_id=job_id)


def _shed(index, t, reason="queue_full", tenant=0):
    return _ArrivalRecord(Arrival(index, t, tenant, 2), shed=True, reason=reason)


def _report(records, jobs, autoscaler=DISABLED_AUTOSCALER, peak_queue=0):
    return assemble_report(
        records=records, jobs=jobs, cfg=CFG, process=PROCESS,
        autoscaler=autoscaler, peak_queue=peak_queue, seed=0,
    )


def test_warmup_arrivals_are_excluded_from_window_metrics():
    # job 0 arrives during warmup with a pathological 100 s JCT; jobs 1-2
    # arrive inside the window and finish in 1 s
    records = [
        _submitted(0, 1.0, job_id=0),
        _submitted(1, 3.0, job_id=1),
        _submitted(2, 4.0, job_id=2),
    ]
    jobs = {
        0: _FakeJob(1.0, finish_time=101.0, admit_time=1.0),
        1: _FakeJob(3.0, finish_time=4.0, admit_time=3.0),
        2: _FakeJob(4.0, finish_time=5.0, admit_time=4.0),
    }
    rep = _report(records, jobs)
    assert rep["counts"]["generated"] == 3 and rep["counts"]["completed"] == 3
    assert rep["window"]["generated"] == 2
    # the 100 s warmup job must not appear in any window statistic
    assert rep["window"]["jct"]["count"] == 2
    assert rep["window"]["latency_p99_s"] == pytest.approx(1.0)
    assert rep["window"]["jct"]["max"] == pytest.approx(1.0)
    # goodput counts window completions over the window span only
    assert rep["window"]["goodput_jobs_per_s"] == pytest.approx(2 / 8.0)
    assert validate_report(rep) == []


def test_accounting_identity_with_shed_failed_and_in_flight():
    records = [
        _submitted(0, 3.0, job_id=0),            # completes
        _submitted(1, 4.0, job_id=1),            # fails
        _submitted(2, 5.0, job_id=2),            # still in flight at stop
        _shed(3, 6.0),                           # queue_full
        _shed(4, 7.0, reason="too_large"),
    ]
    jobs = {
        0: _FakeJob(3.0, finish_time=4.0, admit_time=3.0),
        1: _FakeJob(4.0, finish_time=6.0, admit_time=4.0, failed=True),
        2: _FakeJob(5.0, admit_time=5.5),
    }
    rep = _report(records, jobs, peak_queue=4)
    c = rep["counts"]
    assert (c["generated"], c["submitted"], c["shed"]) == (5, 3, 2)
    assert (c["completed"], c["failed"], c["in_flight"]) == (1, 1, 1)
    assert c["generated"] == c["shed"] + c["completed"] + c["failed"] + c["in_flight"]
    assert rep["backpressure"]["shed_queue_full"] == 1
    assert rep["backpressure"]["shed_too_large"] == 1
    assert rep["window"]["shed_rate"] == pytest.approx(2 / 5)
    # admission wait counts admitted jobs even if they did not finish
    assert rep["window"]["admission_wait"]["count"] == 3
    assert validate_report(rep) == []


def test_empty_window_yields_zero_distributions():
    rep = _report([_shed(0, 3.0)], {})
    assert rep["window"]["jct"]["count"] == 0
    assert rep["window"]["latency_p99_s"] == 0.0
    assert rep["window"]["goodput_jobs_per_s"] == 0.0
    assert rep["window"]["shed_rate"] == 1.0
    assert validate_report(rep) == []


def test_validate_report_catches_corruption():
    rep = _report([_submitted(0, 3.0, job_id=0)],
                  {0: _FakeJob(3.0, finish_time=4.0, admit_time=3.0)})
    assert validate_report(rep) == []
    assert validate_report({"schema": "nope"})  # wrong schema + missing keys
    bad = {**rep, "counts": {**rep["counts"], "completed": 99}}
    assert any("identity" in e for e in validate_report(bad))
    bad = {**rep, "window": {**rep["window"], "shed_rate": 1.5}}
    assert any("shed_rate" in e for e in validate_report(bad))
    missing = {**rep}
    del missing["autoscaler"]
    assert any("autoscaler" in e for e in validate_report(missing))
    assert rep["schema"] == SCHEMA


def test_service_config_validation():
    with pytest.raises(ValueError):
        ServiceConfig(horizon=0.0, warmup=0.0, drain_grace=0.0)
    with pytest.raises(ValueError):
        ServiceConfig(horizon=10.0, warmup=10.0, drain_grace=0.0)
    with pytest.raises(ValueError):
        ServiceConfig(horizon=10.0, warmup=1.0, drain_grace=-1.0)
    with pytest.raises(ValueError):
        ServiceConfig(horizon=10.0, warmup=1.0, drain_grace=0.0, queue_limit=0)


@pytest.mark.parametrize("field, kwargs", [
    ("drain_grace", {"horizon": 10.0, "warmup": 1.0, "drain_grace": float("nan")}),
    ("drain_grace", {"horizon": 10.0, "warmup": 1.0, "drain_grace": float("inf")}),
    ("horizon", {"horizon": float("nan"), "warmup": 0.0, "drain_grace": 1.0}),
    ("horizon", {"horizon": float("inf"), "warmup": 0.0, "drain_grace": 1.0}),
])
def test_service_config_rejects_non_finite_by_name(field, kwargs):
    with pytest.raises(ValueError, match=field):
        ServiceConfig(**kwargs)
