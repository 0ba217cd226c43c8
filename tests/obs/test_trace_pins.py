"""Byte pins for every artifact the observation layer produces.

Two runs are traced with the recorder and telemetry both on:

* the faulted tiny TPC-H run of ``tests/faults/test_determinism.py``
  (``PLAN``, seed 3) — monotask loss, retries, aborts and queue evictions;
* one ``fig_service`` unit with the autoscaler on — autoscaling actions
  and admission shedding.

For each run the sha256 of five artifacts is pinned: the JSONL trace
bytes, the Chrome ``trace.json`` bytes, the canonical ``attribution.json``
text, the sorted-key telemetry summary and the latency tables
(``derive_latency`` rendered by ``format_latency_rows``).  The first four
constants were computed before the recorder and telemetry were folded
into one row log, the latency ones before the analyses shared one
push→grant matcher; any change to how hooks are recorded or read must
leave every byte as it was.
"""

import hashlib
import json

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.experiments import fig_service
from repro.experiments.common import SCALES
from repro.metrics import format_latency_rows
from repro.obs import attribution, recorder, telemetry
from repro.obs.export import write_trace_files
from repro.obs.latency import derive_latency
from repro.scheduler import UrsaConfig, UrsaSystem
from repro.workloads import submit_workload, tpch_workload

from ..faults.test_determinism import NUM_MACHINES, PLAN

SERVICE_UNIT = "poisson-x2.0"

PINS = {
    "faulted": {
        "jsonl":
            "7dded0d81d2178deb3284745f3cc444588f6c15bd27532270e61bd18dce6d8d2",
        "chrome":
            "031cd49e78ee6029759f822a1c8d501734d44c6415e1b0c25ed4bacff34bf686",
        "attribution":
            "eadbfbadf1c3aa97af6f70bf80d6e5ff39aaba22397eb669602b9d793480ea5c",
        "telemetry":
            "d8b4bdb4203378ee2f0d30ce70aafd892ea50e4439d1c0329faa6b397552b9ae",
        "latency":
            "3d50178d373895347196f12f9ce0030d2156c0c5c75694abab90b092e4add47b",
    },
    "service": {
        "jsonl":
            "a8a9f93dd54840c82a0ebfb7d0813cc7ceb7a20b0ff17b5fed9ea6925d94ed09",
        "chrome":
            "3400a7488a503e1b9548d08c2c08d70434ad632a5c89d7ce39cf36199fe95692",
        "attribution":
            "20c098e8f902ab13261b06b0f0b6992fae9e9b3eaa84cd4fa2fb472ca8fdee62",
        "telemetry":
            "dd43ab468f4368d0130c7ebb65518eafee9c4bd1c4f4d77700a06b4585f590ec",
        "latency":
            "ed0895da4c65066e2d2e2b347f895573600763ec05fa8be9d4a7ac99cd614069",
    },
}


def _faulted():
    cluster = Cluster(
        ClusterSpec(num_machines=NUM_MACHINES,
                    machine=ClusterSpec.paper_cluster().machine)
    )
    system = UrsaSystem(cluster, UrsaConfig(policy="ejf", faults=PLAN))
    wl = tpch_workload(n_jobs=6, scale=0.02, arrival_interval=0.6,
                       max_parallelism=128, partition_mb=12.0)
    submit_workload(system, wl, seed=0)
    system.run(max_events=50_000_000)
    assert system.all_terminal


def _service():
    fig_service.run_unit(SCALES["tiny"], SERVICE_UNIT, seed=0)


RUNS = {"faulted": _faulted, "service": _service}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _artifacts(name, tmp_path):
    rec = recorder.enable()
    tel = telemetry.enable()
    try:
        RUNS[name]()
    finally:
        telemetry.disable()
        recorder.disable()
    attr = attribution.attribute(rec.events)
    assert attribution.validate(attr) == []
    paths = write_trace_files(rec, tmp_path)
    return {
        "jsonl": _sha(paths["jsonl"].read_bytes()),
        "chrome": _sha(paths["chrome"].read_bytes()),
        "attribution": _sha(attribution.render_json(attr).encode()),
        "telemetry": _sha(json.dumps(tel.summary(), sort_keys=True).encode()),
        "latency": _sha(format_latency_rows(
            derive_latency(rec.events.folds())).encode()),
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_obs_artifacts_pinned(name, tmp_path):
    assert _artifacts(name, tmp_path) == PINS[name]
