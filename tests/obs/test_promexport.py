"""Prometheus exposition: real-run rendering, scrape series, validator."""

import pickle

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.metrics import compute_metrics
from repro.obs import telemetry
from repro.obs.promexport import (
    render_prom,
    validate_prom,
    write_prom,
    write_prom_series,
)
from repro.scheduler import UrsaConfig, UrsaSystem
from repro.workloads import submit_workload, tpch_workload


@pytest.fixture(scope="module")
def summary():
    """One small deterministic run with telemetry on; yields its summary
    (module-scoped: rendering is read-only)."""
    telemetry.disable()
    tel = telemetry.enable()
    tel.begin_unit("prom_test")
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
    yield tel.summary()


# ----------------------------------------------------------------------
# rendering from a real run
# ----------------------------------------------------------------------
def test_render_prom_is_valid_exposition(summary):
    text = render_prom(summary)
    assert validate_prom(text) == []
    assert 'ursa_monotask_grants_total{unit="prom_test"}' in text
    assert "# TYPE ursa_alloc_latency_seconds histogram" in text
    # the empty pre-begin_unit "run" placeholder must not leak into exports
    assert 'unit="run"' not in text


def test_render_prom_histograms_expand_classic_shape(summary):
    text = render_prom(summary)
    assert 'ursa_jct_seconds_bucket{unit="prom_test",le="+Inf"}' in text
    assert 'ursa_jct_seconds_sum{unit="prom_test"}' in text
    assert 'ursa_jct_seconds_count{unit="prom_test"}' in text


def test_write_prom_round_trips(summary, tmp_path):
    path = write_prom(summary, tmp_path / "out" / "metrics.prom")
    assert path.exists()
    assert validate_prom(path.read_text()) == []


def test_write_prom_series_one_file_per_interval(summary, tmp_path):
    paths = write_prom_series(summary, tmp_path / "scrapes")
    assert len(paths) > 1  # the run lasts several resampling intervals
    for path in paths:
        text = path.read_text()
        assert validate_prom(text) == []
        assert 'ursa_utilization{unit="prom_test",resource="cpu"}' in text
    # scrape files are ordered and named by interval index
    assert paths[0].name == "scrape_00000.prom"
    assert [p.name for p in paths] == sorted(p.name for p in paths)


# ----------------------------------------------------------------------
# validator: injected-error cases
# ----------------------------------------------------------------------
_VALID = """\
# HELP ursa_grants_total Grants issued
# TYPE ursa_grants_total counter
ursa_grants_total{unit="a"} 12
"""


def test_validate_prom_accepts_minimal_document():
    assert validate_prom(_VALID) == []


def test_validate_prom_rejects_malformed_sample():
    errs = validate_prom(_VALID + "this is not a sample\n")
    assert any("malformed sample" in e for e in errs)


def test_validate_prom_rejects_sample_before_type():
    errs = validate_prom('untyped_metric{unit="a"} 1\n')
    assert any("before any TYPE" in e for e in errs)


def test_validate_prom_rejects_unknown_type():
    errs = validate_prom("# TYPE ursa_x flavor\n")
    assert any("unknown TYPE" in e for e in errs)


def test_validate_prom_rejects_malformed_label():
    doc = "# TYPE m gauge\nm{bad-label=\"x\"} 1\n"
    assert any("malformed" in e for e in validate_prom(doc))


def test_validate_prom_rejects_non_cumulative_buckets():
    doc = (
        "# TYPE h histogram\n"
        'h_bucket{le="1"} 5\n'
        'h_bucket{le="2"} 3\n'
        'h_bucket{le="+Inf"} 5\n'
        "h_count 5\n"
    )
    errs = validate_prom(doc)
    assert any("not cumulative" in e for e in errs)


def test_validate_prom_rejects_missing_inf_bucket():
    doc = "# TYPE h histogram\n" 'h_bucket{le="1"} 5\n'
    errs = validate_prom(doc)
    assert any("+Inf" in e for e in errs)


def test_validate_prom_rejects_count_bucket_mismatch():
    doc = (
        "# TYPE h histogram\n"
        'h_bucket{le="1"} 5\n'
        'h_bucket{le="+Inf"} 5\n'
        "h_count 7\n"
    )
    errs = validate_prom(doc)
    assert any("_count != +Inf" in e for e in errs)


# ----------------------------------------------------------------------
# attribution gauges
# ----------------------------------------------------------------------
def _attr_result():
    from repro.obs.attribution import CATEGORIES, IDLE_CAUSES, RTYPES

    ledger = {c: 0.0 for c in CATEGORIES}
    ledger["compute"] = 12.5
    return {
        "schema": 1,
        "units": {
            "t2:ursa-ejf": {
                "jobs": {},
                "ledger_totals": ledger,
                "idle": {
                    "per_worker": {},
                    "totals": {
                        r: {c: 1.0 for c in IDLE_CAUSES} for r in RTYPES
                    },
                    "capacity_seconds": {r: 10.0 for r in RTYPES},
                    "end_t": 5.0,
                },
            },
        },
    }


def test_render_attr_prom_is_valid_exposition():
    from repro.obs.promexport import render_attr_prom

    text = render_attr_prom(_attr_result())
    assert validate_prom(text) == []
    assert ('ursa_jct_ledger_seconds{unit="t2:ursa-ejf",'
            'category="compute"} 12.5') in text
    assert ('ursa_idle_blame_seconds{unit="t2:ursa-ejf",resource="cpu",'
            'cause="blocked_policy"} 1') in text
    assert ('ursa_idle_capacity_seconds{unit="t2:ursa-ejf",'
            'resource="disk"} 10') in text


def test_write_attr_prom_round_trips(tmp_path):
    from repro.obs.promexport import render_attr_prom, write_attr_prom

    path = write_attr_prom(_attr_result(), tmp_path / "deep" / "attr.prom")
    assert path.read_text() == render_attr_prom(_attr_result())
