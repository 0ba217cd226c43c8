"""Runner/registry plumbing tests (no heavy simulation)."""

import io
import contextlib
import multiprocessing

import pytest

from repro.experiments.common import SCALES
from repro.experiments.registry import SPLIT_EXPERIMENTS, run_all
from repro.perf import ParallelRunner, ResultCache
from repro.perf.units import SplitExperiment


def test_every_experiment_has_a_split():
    for name, split in SPLIT_EXPERIMENTS.items():
        assert isinstance(split, SplitExperiment)
        assert split.name == name


def test_every_split_enumerates_units():
    sc = SCALES["tiny"]
    expected_counts = {
        "table1+fig1": 12,   # 3 engines × 4 jobs
        "table2": 4,
        "table3": 3,
        "table4": 7,
        "table5": 6,         # 3 ratios × 2 systems
        "table6": 6,         # 3 settings × 2 policies
        "fig4+fig5": 7,      # 4 TPC-H systems + 3 TPC-DS systems
        "fig6": 3,           # bandwidths
        "fig7+sec5.2": 3,    # variants
        "fig8": 2,           # job types
        "fig9": 1,
        "fig10": 2,          # policies
        "fig_faults": 6,     # 2 policies × 3 crash counts
        "fig_service": 7,    # 3 processes + rate sweep + noscale control
    }
    for name, split in SPLIT_EXPERIMENTS.items():
        keys = split.unit_keys(sc)
        assert len(keys) == expected_counts[name], name
        assert len(set(map(repr, keys))) == len(keys), f"{name}: duplicate unit keys"


def test_split_kwargs_partitions_display_args():
    split = SPLIT_EXPERIMENTS["fig8"]
    sim, display = split.split_kwargs({"show_charts": False, "seed_offset": 3})
    assert display == {"show_charts": False}
    assert sim == {"seed_offset": 3}


def test_runner_rejects_negative_workers():
    with pytest.raises(ValueError):
        ParallelRunner(workers=-1)


def test_default_workers_serial_when_pool_cannot_help(monkeypatch):
    import repro.perf.runner as runner_mod

    monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 1)
    assert runner_mod.default_workers() == 0
    monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: None)
    assert runner_mod.default_workers() == 0
    monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 8)
    assert runner_mod.default_workers() == 8


def test_single_worker_runs_in_process(monkeypatch):
    """workers=1 must take the serial path — a one-worker pool pays spawn
    plus pickling for zero overlap.  The runner imports the pool class only
    when it opens a pool, so the patch sits on ``concurrent.futures``."""
    import concurrent.futures

    def _no_pool(*args, **kwargs):
        pytest.fail("workers=1 must not create a ProcessPoolExecutor")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    runner = ParallelRunner(workers=1)
    with contextlib.redirect_stdout(io.StringIO()):
        runner.run("fig9", SCALES["tiny"])
    assert runner.executed_units == 1


def test_runner_rejects_unknown_experiment():
    with pytest.raises(KeyError):
        ParallelRunner().run("table99", SCALES["tiny"])


def test_parallel_run_leaves_no_worker_processes():
    """The pool lives for one call: nothing outlives ``run``."""
    runner = ParallelRunner(workers=2)
    with contextlib.redirect_stdout(io.StringIO()):
        runner.run("fig9", SCALES["tiny"])
    assert runner.executed_units == 1
    assert multiprocessing.active_children() == []


def test_observed_run_executes_units_despite_warm_cache(tmp_path):
    """A cached payload carries no event rows, so a run observed by a trace
    or telemetry executes every unit instead of reading the cache (and
    still stores what it ran)."""
    from repro.obs import recorder, telemetry

    sc = SCALES["tiny"]
    n_units = len(SPLIT_EXPERIMENTS["fig8"].unit_keys(sc))
    cache = ResultCache(tmp_path / "cache", fingerprint="test-fp")

    def traced(runner):
        rec = recorder.enable()
        try:
            runner.run("fig8", sc)
        finally:
            recorder.disable()
        return rec

    with contextlib.redirect_stdout(io.StringIO()):
        ParallelRunner(cache=cache).run("fig8", sc)  # warm the cache
        rec_uncached = traced(ParallelRunner())
        runner = ParallelRunner(cache=cache)
        rec = traced(runner)
        assert (runner.executed_units, runner.cached_units) == (n_units, 0)
        assert rec.events and rec.events == rec_uncached.events

        tel = telemetry.enable()
        try:
            runner.run("fig8", sc)
        finally:
            telemetry.disable()
        assert (runner.executed_units, runner.cached_units) == (n_units, 0)
        assert tel.summary()["units"]

        runner.run("fig8", sc)  # unobserved again: served from the cache
    assert (runner.executed_units, runner.cached_units) == (0, n_units)


def test_run_all_only_subset():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        results = run_all("tiny", only=["fig8"])
    assert set(results) == {"fig8"}
    assert set(results["fig8"]) == {1, 2}
    assert "=== fig8 ===" in out.getvalue()


def test_run_all_rejects_unknown_only():
    with pytest.raises(KeyError):
        run_all("tiny", only=["nope"])


def test_cli_list(capsys):
    from repro.experiments.__main__ import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == list(SPLIT_EXPERIMENTS)


def test_cli_rejects_unknown_only(capsys):
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit):
        main(["--only", "nope"])


@pytest.mark.parametrize("interval", ["nan", "inf", "-inf", "0"])
def test_cli_rejects_non_finite_telemetry_interval(interval, tmp_path, capsys):
    from repro.experiments.__main__ import main
    from repro.obs import telemetry

    with pytest.raises(SystemExit) as exc:
        main(["--only", "table2", "--scale", "tiny", "--telemetry-out",
              str(tmp_path), "--telemetry-interval", interval])
    assert exc.value.code == 2
    assert "--telemetry-interval" in capsys.readouterr().err
    assert telemetry.TELEMETRY is None
    assert not any(tmp_path.iterdir())


def test_cli_argument_error_installs_no_obs_globals(tmp_path, capsys):
    """``--service-out`` without fig_service is an argument error: it
    exits before the recorder and telemetry are installed, so later
    simulations in the same process record nothing."""
    from repro.experiments.__main__ import main
    from repro.obs import recorder, telemetry

    with pytest.raises(SystemExit) as exc:
        main(["--only", "table2", "--scale", "tiny",
              "--trace-out", str(tmp_path / "trace"),
              "--telemetry-out", str(tmp_path / "telemetry"),
              "--service-out", str(tmp_path / "service")])
    assert exc.value.code == 2
    assert "--service-out requires fig_service" in capsys.readouterr().err
    assert recorder.RECORDER is None
    assert telemetry.TELEMETRY is None


def test_cli_runs_single_experiment(capsys):
    from repro.experiments.__main__ import main

    assert main(["--only", "fig8", "--scale", "tiny"]) == 0
    captured = capsys.readouterr()
    assert "Figure 8" in captured.out
    assert "suite completed" in captured.err
