"""Tests for SE/UE accounting, stragglers, charts and tables."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.dataflow import DepType, OpGraph, ResourceType
from repro.metrics import (
    SystemMetrics,
    ascii_chart,
    compute_metrics,
    format_metric_rows,
    format_table,
    job_straggler_ratio,
    multi_series_chart,
    sparkline,
    stage_straggler_time,
)
from repro.scheduler import UrsaSystem


def run_small_system(plans=None):
    cluster = Cluster(ClusterSpec.small(num_machines=2, cores=4, core_rate_mbps=10.0))
    ursa = UrsaSystem(cluster)
    g = OpGraph("m")
    src = g.create_data(4)
    g.set_input(src, [10.0] * 4)
    msg = g.create_data(4)
    ser = g.create_op(ResourceType.CPU, "ser").read(src).create(msg)
    sh = g.create_op(ResourceType.NETWORK, "sh").read(msg).create(g.create_data(4))
    ser.to(sh, DepType.SYNC)
    job = ursa.submit(g, 512.0)
    if plans is not None:
        plans[job.job_id] = job.plan  # held before the job is retired
    ursa.run(max_events=200_000)
    return ursa


def test_compute_metrics_basic():
    ursa = run_small_system()
    m = compute_metrics(ursa)
    assert m.makespan > 0
    assert m.mean_jct == pytest.approx(m.makespan)  # single job
    assert 0 < m.se_cpu <= 1.0
    assert m.ue_cpu == pytest.approx(1.0)  # Ursa: allocated == used
    assert 0 < m.se_mem < 1.0
    assert m.cpu_utilization == pytest.approx(m.se_cpu * m.ue_cpu)
    assert len(m.jcts) == 1


def test_compute_metrics_row_is_percent():
    ursa = run_small_system()
    row = compute_metrics(ursa).row()
    assert row["UE_cpu"] == pytest.approx(100.0)
    assert set(row) == {"makespan", "avg_jct", "UE_cpu", "SE_cpu", "UE_mem", "SE_mem"}


def test_compute_metrics_requires_finished_jobs():
    cluster = Cluster(ClusterSpec.small())
    ursa = UrsaSystem(cluster)
    with pytest.raises(ValueError):
        compute_metrics(ursa)  # no jobs
    g = OpGraph("x")
    src = g.create_data(1)
    g.set_input(src, [1000.0])
    g.create_op(ResourceType.CPU).read(src).create(g.create_data(1))
    ursa.submit(g, 512.0)
    with pytest.raises(ValueError):
        compute_metrics(ursa)  # unfinished


# ----------------------------------------------------------------------
# stragglers
# ----------------------------------------------------------------------
def test_stage_straggler_time_no_outliers():
    assert stage_straggler_time([1.0, 1.1, 0.9, 1.0]) == pytest.approx(0.0, abs=1e-9)
    assert stage_straggler_time([2.0, 2.0, 2.0, 2.0, 2.0]) == 0.0


def test_stage_straggler_time_with_outlier():
    times = [1.0] * 8 + [5.0]
    s = stage_straggler_time(times)
    assert s > 3.0  # well above the IQR threshold


def test_stage_straggler_small_stages_ignored():
    assert stage_straggler_time([1.0, 9.0]) == 0.0


def test_mean_straggler_ratio_over_jobs():
    plans = {}
    ursa = run_small_system(plans)
    # Ursa retires finished jobs, so pass each job's plan held before the run
    ratios = [job_straggler_ratio(j, plans[j.job_id]) for j in ursa.jobs if j.jct]
    r = sum(ratios) / len(ratios)
    assert 0.0 <= r < 1.0


# ----------------------------------------------------------------------
# charts / tables
# ----------------------------------------------------------------------
def test_sparkline_shapes():
    line = sparkline([0, 50, 100], 0, 100)
    assert len(line) == 3
    assert line[0] == " " and line[-1] == "█"
    assert sparkline([]) == ""


def test_ascii_chart_contains_axis():
    chart = ascii_chart([1, 2, 3], height=4, label="demo")
    assert "demo" in chart
    assert "█" in chart
    assert ascii_chart([], label="x") == "x (empty)"


def test_multi_series_chart_labels():
    text = multi_series_chart({"cpu": [10, 90], "net": [5, 5]})
    assert "cpu" in text and "net" in text


def test_format_table_alignment():
    text = format_table(["a", "bb"], [[1, 2.5], [10, 33.123]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "33.12" in text
    assert "--" in lines[2]


def test_format_metric_rows():
    ursa = run_small_system()
    m = compute_metrics(ursa)
    text = format_metric_rows({"ursa": m}, title="demo")
    assert "ursa" in text and "UE_cpu" in text
