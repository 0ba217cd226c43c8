"""Dashboard rendering: panel structure, resampling, live attachment."""

import io
import math
import pickle

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.metrics import compute_metrics
from repro.obs import telemetry
from repro.obs.dashboard import (
    PANEL_WIDTH,
    _resample,
    attach_live,
    render_dashboard,
    render_unit,
)
from repro.scheduler import UrsaConfig, UrsaSystem
from repro.workloads import submit_workload, tpch_workload


def _run_with_telemetry(unit="dash", live_stream=None):
    telemetry.disable()
    tel = telemetry.enable()
    if live_stream is not None:
        attach_live(tel, stream=live_stream)
    tel.begin_unit(unit)
    cluster = Cluster(
        ClusterSpec(num_machines=3, machine=ClusterSpec.paper_cluster().machine)
    )
    system = UrsaSystem(cluster, UrsaConfig(policy="srjf"))
    submit_workload(
        system,
        tpch_workload(n_jobs=4, scale=0.02, arrival_interval=0.5,
                      max_parallelism=64, partition_mb=12.0, seed=3),
    )
    system.run(max_events=50_000_000)
    pickle.dumps(compute_metrics(system))
    telemetry.disable()
    return tel


@pytest.fixture(scope="module")
def summary():
    return _run_with_telemetry().summary()


def test_render_unit_panel_structure(summary):
    panel = render_unit("dash", summary["units"]["dash"])
    assert "unit dash" in panel
    assert "utilization (fraction of concurrency limit)" in panel
    assert "queue depth" in panel
    assert "alloc[cpu]" in panel  # the latency table rendered
    assert "jobs: 4/4 done (0 failed)" in panel
    # box borders present and the panel never exceeds its drawn width
    lines = panel.splitlines()
    assert lines[0].startswith("┌") and lines[-1].startswith("└")


def test_render_unit_sparklines_fit_panel_width(summary):
    panel = render_unit("dash", summary["units"]["dash"])
    for line in panel.splitlines():
        if "|" in line and line.strip().startswith(("cpu", "network", "disk")):
            strip = line.split("|")[1]
            assert len(strip) <= PANEL_WIDTH


def test_render_dashboard_covers_live_units_only(summary):
    out = render_dashboard(summary)
    assert "unit dash" in out
    assert "unit run" not in out  # the empty placeholder stays hidden


def test_render_dashboard_empty_collector():
    telemetry.disable()
    tel = telemetry.enable()
    telemetry.disable()
    assert render_dashboard(tel.summary()) == "(no telemetry units recorded)"


def test_attach_live_prints_panel_when_unit_seals():
    buf = io.StringIO()
    _run_with_telemetry(unit="live", live_stream=buf)
    out = buf.getvalue()
    assert "unit live" in out
    assert out.count("┌") == 1  # exactly one panel: the one sealed unit


def test_resample_averages_down_to_width():
    series = list(range(1000))
    out = _resample(series, 10)
    assert len(out) == 10
    assert out == sorted(out)  # monotone input stays monotone
    assert out[0] == pytest.approx(sum(range(100)) / 100)


def test_resample_short_series_passes_through():
    assert _resample([1, 2, 3], 10) == [1.0, 2.0, 3.0]
    assert _resample([], 10) == []


def test_resample_never_drops_mass():
    series = [float(i % 7) for i in range(333)]
    out = _resample(series, 64)
    assert len(out) == 64
    assert all(math.isfinite(v) for v in out)


# ----------------------------------------------------------------------
# idle-blame panel (attribution renderer)
# ----------------------------------------------------------------------
def _unit_attr(per_worker=True):
    causes = {"fault_down": 0.0, "blocked_policy": 30.0,
              "admission_gated": 0.0, "no_work": 10.0}
    zero = {c: 0.0 for c in causes}
    return {
        "jobs": {},
        "ledger_totals": {"compute": 5.0, "sched_delay": 2.0, "transfer": 0.0},
        "idle": {
            "per_worker": {"0": {"cpu": causes, "network": zero, "disk": zero}}
            if per_worker else {},
            "totals": {"cpu": dict(causes), "network": dict(zero),
                       "disk": dict(zero)},
            "capacity_seconds": {"cpu": 100.0, "network": 50.0, "disk": 50.0},
            "end_t": 10.0,
        },
    }


def test_render_blame_ranks_causes_with_capacity_share():
    from repro.obs.dashboard import render_blame

    panel = render_blame("t2:ursa-ejf", _unit_attr())
    assert "idle-time blame — unit t2:ursa-ejf" in panel
    cpu_line = next(ln for ln in panel.splitlines() if "cpu:" in ln)
    # blocked_policy (30s / 100 slot-s) must rank ahead of no_work (10s)
    assert cpu_line.index("blocked_policy") < cpu_line.index("no_work")
    assert "30.0s (30%)" in cpu_line
    assert "jct ledger: compute 5.0s  sched_delay 2.0s" in panel
    assert panel.startswith("┌") and panel.rstrip().endswith("┘")


def test_render_blame_notes_executor_baseline_units():
    from repro.obs.dashboard import render_blame

    panel = render_blame("t2:spark", _unit_attr(per_worker=False))
    assert "executor-model" in panel
