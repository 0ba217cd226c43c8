"""The simulation path imports only what it runs.

A fresh interpreter imports the modules the benchmark's workloads import and
must not have loaded the process pool, the baselines, the trace exporters, the
dashboard, the TPC generators or the fault injector: those load on first use.
Every name a package re-exports must still resolve.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SIMULATION_PATH = (
    "repro.cluster", "repro.scheduler", "repro.service", "repro.workloads",
    "repro.metrics",
    "repro.obs.recorder", "repro.obs.telemetry", "repro.obs.attribution",
    "repro.obs.latency",
    "repro.experiments.common", "repro.experiments.fig_service",
    "repro.experiments.fig8_fig9_fig10_synthetic",
)

LOADED_ON_FIRST_USE = (
    "multiprocessing", "concurrent.futures", "repro.baselines",
    "repro.obs.export", "repro.obs.promexport", "repro.obs.dashboard",
    "repro.workloads.tpch", "repro.workloads.tpcds", "repro.workloads.mixed",
    "repro.faults.injector",
)

PACKAGES = ("repro.obs", "repro.workloads", "repro.faults", "repro.metrics", "repro.perf")


def _fresh(script: str):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def test_the_simulation_path_loads_nothing_it_does_not_run():
    loaded = _fresh(
        "import importlib, json, sys\n"
        f"for name in {SIMULATION_PATH!r}: importlib.import_module(name)\n"
        f"print(json.dumps([m for m in {LOADED_ON_FIRST_USE!r} if m in sys.modules]))\n"
    )
    assert loaded == []


def test_every_reexported_name_still_resolves():
    missing = _fresh(
        "import importlib, json\n"
        "missing = []\n"
        f"for pkg in {PACKAGES!r}:\n"
        "    module = importlib.import_module(pkg)\n"
        "    missing += [f'{pkg}.{n}' for n in module.__all__ if not hasattr(module, n)]\n"
        "print(json.dumps(missing))\n"
    )
    assert missing == []
