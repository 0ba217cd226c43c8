"""Percentile math and trace-derived latency distributions."""

import numpy as np
import pytest

from repro.obs import Dist, derive_latency, dist, parse_events, percentile
from repro.obs import events as ev


# ----------------------------------------------------------------------
# percentile / dist
# ----------------------------------------------------------------------
def test_percentile_matches_numpy_linear_interpolation():
    values = sorted([3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3])
    for q in (0.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_single_sample():
    assert percentile([7.0], 0.0) == 7.0
    assert percentile([7.0], 50.0) == 7.0
    assert percentile([7.0], 100.0) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], -1.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


def test_dist_summary():
    d = dist([4.0, 1.0, 3.0, 2.0])
    assert isinstance(d, Dist)
    assert d.count == 4
    assert d.mean == pytest.approx(2.5)
    assert d.p50 == pytest.approx(2.5)
    assert d.max == 4.0
    assert d.row()["p95"] == d.p95


def test_dist_empty_is_none():
    assert dist([]) is None


# ----------------------------------------------------------------------
# derive_latency
# ----------------------------------------------------------------------
def _row(kind, t, **fields):
    return ev.row_from_event({"kind": kind, "t": t, **fields})


def test_queued_monotask_alloc_and_queue_wait():
    rows = [
        _row(ev.QUEUE_PUSH, 1.0, worker=0, rtype="disk", job=0, mt=7, qlen=1),
        _row(ev.MT_START, 3.5, worker=0, rtype="disk", job=0, mt=7, running=1,
             bypass=False),
    ]
    stats = derive_latency(parse_events([("run", rows)]))
    d = stats["alloc_latency"]["disk"]
    assert d.count == 1 and d.p50 == pytest.approx(2.5)
    q = stats["queue_wait"]["disk"]
    assert q.count == 1 and q.max == pytest.approx(2.5)


def test_bypass_monotask_is_zero_alloc_and_excluded_from_queue_wait():
    rows = [
        _row(ev.MT_START, 2.0, worker=1, rtype="network", job=0, mt=9,
             running=0, bypass=True),
    ]
    stats = derive_latency(parse_events([("run", rows)]))
    d = stats["alloc_latency"]["network"]
    assert d.count == 1 and d.max == 0.0
    assert "network" not in stats["queue_wait"]


def test_placement_and_admission_latency():
    rows = [
        _row(ev.JOB_ADMIT, 5.0, job=0, waited=4.25, reserved_mb=100.0),
        _row(ev.TASK_READY, 6.0, job=0, task=3, stage=0, n_mt=2, input_mb=1.0),
        _row(ev.TASK_PLACED, 6.75, job=0, task=3, worker=2, score=0.5, n_mt=2),
    ]
    stats = derive_latency(parse_events([("run", rows)]))
    assert stats["placement_latency"].max == pytest.approx(0.75)
    assert stats["admission_wait"].max == pytest.approx(4.25)


def test_units_do_not_cross_match():
    """Identical (job, mt) ids in different units must stay separate."""
    push = dict(worker=0, rtype="cpu", job=0, mt=1, qlen=1)
    start = dict(worker=0, rtype="cpu", job=0, mt=1, running=1, bypass=False)
    runs = [
        ("u1", [_row(ev.QUEUE_PUSH, 1.0, **push)]),
        # same ids in u2, pushed later: matching across units would yield a
        # negative latency for u1's start
        ("u2", [_row(ev.QUEUE_PUSH, 9.0, **push)]),
        ("u1", [_row(ev.MT_START, 2.0, **start)]),
        ("u2", [_row(ev.MT_START, 10.0, **start)]),
    ]
    stats = derive_latency(parse_events(runs))
    d = stats["alloc_latency"]["cpu"]
    assert d.count == 2
    assert d.max == pytest.approx(1.0)
    assert stats["units"] == ["u1", "u2"]


def test_empty_stream():
    stats = derive_latency({})
    assert stats["alloc_latency"] == {}
    assert stats["queue_wait"] == {}
    assert stats["placement_latency"] is None
    assert stats["admission_wait"] is None
    assert stats["n_events"] == 0
    assert stats["units"] == []


# ----------------------------------------------------------------------
# Dist zero-value contract / quartiles
# ----------------------------------------------------------------------
def test_dist_zero_contract():
    z = Dist.zero()
    assert z.count == 0
    assert all(
        getattr(z, f) == 0.0
        for f in ("mean", "p25", "p50", "p75", "p95", "p99", "max")
    )
    row = z.row()
    assert row["count"] == 0 and row["p75"] == 0.0


def test_dist_empty_zero_flag():
    assert dist([], empty_zero=True) == Dist.zero()
    assert dist([]) is None  # default stays "absent metric"


def test_dist_single_sample_percentiles_collapse():
    d = dist([3.5])
    assert d.count == 1
    assert d.p25 == d.p50 == d.p75 == d.p95 == d.p99 == d.max == 3.5


def test_dist_quartiles():
    d = dist([1.0, 2.0, 3.0, 4.0, 5.0])
    assert d.p25 == pytest.approx(2.0)
    assert d.p75 == pytest.approx(4.0)
    assert d.row()["p25"] == d.p25
