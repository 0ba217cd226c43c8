"""The telemetry regression gate must fail loudly on injected drift."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
import metrics_diff  # noqa: E402


def _baseline(metrics, tolerances=None):
    return {
        "canonical": metrics_diff.CANONICAL,
        "tolerances": tolerances or {"default_rel": 0.0, "overrides": {}},
        "metrics": dict(metrics),
    }


BASE = {
    "run.counters.grants": 128.0,
    "run.sim_end": 42.5,
    "run.utilization.cpu.mean": 0.61,
}


def test_diff_clean_when_identical():
    assert metrics_diff.diff(_baseline(BASE), dict(BASE)) == []


def test_diff_flags_drift_with_zero_default_tolerance():
    candidate = dict(BASE, **{"run.counters.grants": 129.0})
    failures = metrics_diff.diff(_baseline(BASE), candidate)
    assert len(failures) == 1
    assert failures[0].startswith("DRIFT")
    assert "run.counters.grants" in failures[0]


def test_diff_flags_missing_and_new_metrics():
    candidate = dict(BASE)
    del candidate["run.sim_end"]
    candidate["run.counters.surprise"] = 1.0
    failures = metrics_diff.diff(_baseline(BASE), candidate)
    kinds = sorted(line.split()[0] for line in failures)
    assert kinds == ["MISSING", "NEW"]


def test_tolerance_override_allows_bounded_drift():
    tol = {"default_rel": 0.0,
           "overrides": {"run.utilization.*": 0.05}}
    candidate = dict(BASE, **{"run.utilization.cpu.mean": 0.62})  # ~1.6% off
    assert metrics_diff.diff(_baseline(BASE, tol), candidate) == []
    candidate["run.utilization.cpu.mean"] = 0.70  # ~15% off: past override
    failures = metrics_diff.diff(_baseline(BASE, tol), candidate)
    assert len(failures) == 1 and "DRIFT" in failures[0]


def test_tolerance_none_marks_metric_informational():
    tol = {"default_rel": 0.0, "overrides": {"run.sim_end": None}}
    candidate = dict(BASE, **{"run.sim_end": 99.0})
    assert metrics_diff.diff(_baseline(BASE, tol), candidate) == []


def test_flatten_skips_lists_and_bools():
    flat = {}
    metrics_diff._flatten(
        "u", {"a": 1, "b": {"c": 2.5}, "series": [1, 2], "flag": True}, flat
    )
    assert flat == {"u.a": 1, "u.b.c": 2.5}


# ----------------------------------------------------------------------
# CLI: check / validate-prom exit codes
# ----------------------------------------------------------------------
def test_cmd_check_exits_nonzero_on_injected_regression(tmp_path, capsys):
    base_path = tmp_path / "baseline.json"
    cand_path = tmp_path / "candidate.json"
    base_path.write_text(json.dumps(_baseline(BASE)))
    cand_path.write_text(json.dumps(dict(BASE, **{"run.sim_end": 43.0})))
    rc = metrics_diff.main(
        ["check", "--baseline", str(base_path), "--candidate", str(cand_path)]
    )
    assert rc == 1
    assert "DRIFT" in capsys.readouterr().out


def test_cmd_check_ok_on_matching_candidate(tmp_path, capsys):
    base_path = tmp_path / "baseline.json"
    cand_path = tmp_path / "candidate.json"
    base_path.write_text(json.dumps(_baseline(BASE)))
    # a full baseline-shaped candidate file is accepted too
    cand_path.write_text(json.dumps(_baseline(BASE)))
    rc = metrics_diff.main(
        ["check", "--baseline", str(base_path), "--candidate", str(cand_path)]
    )
    assert rc == 0
    assert "OK" in capsys.readouterr().out


def test_cmd_check_missing_baseline_is_usage_error(tmp_path):
    rc = metrics_diff.main(
        ["check", "--baseline", str(tmp_path / "nope.json"),
         "--candidate", str(tmp_path / "nope.json")]
    )
    assert rc == 2


def test_cmd_validate_prom(tmp_path, capsys):
    good = tmp_path / "good.prom"
    good.write_text("# TYPE m gauge\nm 1\n")
    bad = tmp_path / "bad.prom"
    bad.write_text("not a sample line\n")
    assert metrics_diff.main(["validate-prom", str(good)]) == 0
    assert metrics_diff.main(["validate-prom", str(good), str(bad)]) == 1
    out = capsys.readouterr().out
    assert "OK" in out and "error" in out


def test_committed_baseline_shape():
    """The repo's committed baseline must stay loadable and gated at zero
    tolerance with the documented canonical spec."""
    doc = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCH_metrics.json").read_text()
    )
    assert doc["canonical"] == metrics_diff.CANONICAL
    assert doc["tolerances"]["default_rel"] == 0.0
    assert len(doc["metrics"]) > 100
    assert doc["wall_clock"]["metrics_bit_identical"] is True
    # self-diff of the committed metrics is clean by construction
    assert metrics_diff.diff(doc, dict(doc["metrics"])) == []


def test_measure_overhead_pairs_are_bit_identical():
    out = metrics_diff.measure_overhead(repeats=2, n_jobs=1)
    assert out["metrics_bit_identical"] is True
    assert len(out["telemetry_off_s"]) == len(out["telemetry_on_s"]) == 2
    assert out["repeats"] == 2
