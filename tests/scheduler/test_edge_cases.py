"""Edge-case tests across the scheduling layer."""

import importlib
import inspect
import math

import pytest

from repro.baselines import ExecutorConfig, YarnConfig, YarnSystem, spark_config, tez_config
from repro.cluster import Cluster, ClusterSpec
from repro.dataflow import DepType, OpGraph, ResourceType
from repro.api.payloads import estimate_payload_mb
from repro.execution import JobManager, JobState, MetadataStore
from repro.experiments.common import SCALES, build_system, run_one_system
from repro.scheduler import (
    AdmissionController,
    EarliestJobFirst,
    SmallestRemainingJobFirst,
    UrsaConfig,
    UrsaPlacement,
    UrsaSystem,
    Worker,
)
from repro.simcore import MaxMinFabric, SharedProcessor, Simulation


def cpu_only_job(name="cpu", p=2, size=10.0):
    g = OpGraph(name)
    src = g.create_data(p)
    g.set_input(src, [size] * p)
    g.create_op(ResourceType.CPU, "c").read(src).create(g.create_data(p))
    return g


def small_cluster(**kw):
    return Cluster(ClusterSpec.small(num_machines=2, cores=4, core_rate_mbps=10.0, **kw))


def test_empty_graph_job_completes_immediately():
    ursa = UrsaSystem(small_cluster())
    g = OpGraph("empty")
    src = g.create_data(2)
    g.set_input(src, [1.0, 1.0])
    job = ursa.submit(g, 64.0)
    ursa.run(max_events=10_000)
    assert job.state is JobState.DONE
    assert job.jct is not None and job.jct < 1.0


def test_single_partition_single_op_job():
    ursa = UrsaSystem(small_cluster())
    job = ursa.submit(cpu_only_job(p=1), 64.0)
    ursa.run(max_events=50_000)
    assert job.done


def test_zero_size_input_job():
    ursa = UrsaSystem(small_cluster())
    g = OpGraph("zero")
    src = g.create_data(2)
    g.set_input(src, [0.0, 0.0])
    g.create_op(ResourceType.CPU, "c").read(src).create(g.create_data(2))
    job = ursa.submit(g, 64.0)
    ursa.run(max_events=50_000)
    assert job.done


def test_disk_only_pipeline():
    ursa = UrsaSystem(small_cluster())
    g = OpGraph("disk")
    src = g.create_data(2)
    g.set_input(src, [30.0, 30.0])
    loaded = g.create_data(2)
    rd = g.create_op(ResourceType.DISK, "rd").read(src).create(loaded)
    cpu = g.create_op(ResourceType.CPU, "c").read(loaded).create(g.create_data(2))
    wr = g.create_op(ResourceType.DISK, "wr").read(cpu.output).create(g.create_data(2))
    rd.to(cpu, DepType.ASYNC)
    cpu.to(wr, DepType.ASYNC)
    job = ursa.submit(g, 64.0)
    ursa.run(max_events=100_000)
    assert job.done
    # disk concurrency of 1 per machine serialized the reads/writes
    assert job.jct > 0


def test_many_tiny_jobs_drain():
    ursa = UrsaSystem(small_cluster())
    jobs = [ursa.submit(cpu_only_job(f"j{i}", p=1, size=0.5), 16.0, at=0.05 * i)
            for i in range(50)]
    ursa.run(max_events=2_000_000)
    assert all(j.done for j in jobs)


def test_wide_stage_wider_than_cluster():
    """A 64-task stage on 8 cores places over multiple rounds but finishes."""
    ursa = UrsaSystem(small_cluster())
    job = ursa.submit(cpu_only_job(p=64, size=5.0), 512.0)
    plan = job.plan  # a finished job is retired: hold its plan first
    ursa.run(max_events=1_000_000)
    assert job.done
    workers = {t.worker for t in plan.tasks}
    assert workers == {0, 1}  # both machines used


def test_job_requesting_all_cluster_memory():
    cluster = small_cluster()
    ursa = UrsaSystem(cluster)
    job = ursa.submit(cpu_only_job(), cluster.total_memory_mb)
    ursa.run(max_events=100_000)
    assert job.done


def test_job_requesting_more_than_cluster_memory_rejected():
    cluster = small_cluster()
    ursa = UrsaSystem(cluster)
    with pytest.raises(ValueError):
        ursa.submit(cpu_only_job(), cluster.total_memory_mb * 2)


SYSTEMS = {
    "ursa": lambda: UrsaSystem(small_cluster()),
    "yarn": lambda: YarnSystem(small_cluster(), spark_config(container_memory_mb=1024.0)),
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_submit_refuses_a_past_or_non_finite_at(name):
    """A past ``at`` would stamp a submit time before the job could start
    (inflating its JCT), and a NaN or infinite one would leave a job that
    never arrives: both are refused before any job is recorded."""
    system = SYSTEMS[name]()
    first = system.submit(cpu_only_job("first"), 64.0)
    system.run(max_events=100_000)
    now = system.sim.now
    assert first.done and now > 0
    for at in (0.0, now - 1e-9, -5.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^at must be"):
            system.submit(cpu_only_job("bad"), 64.0, at=at)
        assert len(system.jobs) == 1
    job = system.submit(cpu_only_job("now"), 64.0, at=now)
    system.run(max_events=100_000)
    assert job.done and job.submit_time == now
    assert job.jct == pytest.approx(first.jct)


def test_srjf_with_single_job():
    ursa = UrsaSystem(small_cluster(), UrsaConfig(policy="srjf"))
    job = ursa.submit(cpu_only_job(), 64.0)
    ursa.run(max_events=100_000)
    assert job.done


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        UrsaConfig(policy="fifo").build_policy()


def test_resubmission_after_drain():
    """The scheduler tick re-arms for jobs submitted after a quiet period."""
    ursa = UrsaSystem(small_cluster())
    first = ursa.submit(cpu_only_job("a"), 64.0)
    ursa.run(max_events=100_000)
    assert first.done
    second = ursa.submit(cpu_only_job("b"), 64.0)
    ursa.run(max_events=100_000)
    assert second.done


def test_task_level_metrics_consistency():
    ursa = UrsaSystem(small_cluster())
    job = ursa.submit(cpu_only_job(p=4), 64.0)
    plan = job.plan
    ursa.run(max_events=100_000)
    for task in plan.tasks:
        for mt in task.monotasks:
            assert mt.finished_at <= task.finished_at + 1e-9
            assert mt.started_at >= task.placed_at - 1e-9


# UrsaConfig fields that became module constants: any value, bad or not,
# is refused as an unknown keyword rather than range-checked.
_RETIRED_URSA_FIELDS = {
    "scheduling_interval", "ept_factor", "jm_creation_delay", "starvation_timeout",
}


@pytest.mark.parametrize("field, value", [
    ("policy", "fifo"),
    ("scheduling_interval", 0.0),
    ("scheduling_interval", -0.25),
    ("ept_factor", 0.0),
    ("policy_weight", -0.05),
    ("policy_weight", math.inf),
    ("jm_creation_delay", -0.05),
    ("starvation_timeout", 0.0),
])
def test_config_rejects_bad_field_at_construction(field, value):
    error = TypeError if field in _RETIRED_URSA_FIELDS else ValueError
    with pytest.raises(error, match=field):
        UrsaConfig(**{field: value})


def test_config_accepts_zero_weight_and_delay():
    # the JM launch delay is the constant JM_CREATION_DELAY, not a field
    cfg = UrsaConfig(policy="srjf", policy_weight=0.0)
    assert cfg.build_policy().name == "srjf"


def _knob(owner, build, name, value):
    return pytest.param(build, name, value, id=f"{owner}.{name}")


def _ursa_build(**kw):
    return build_system("ursa-ejf", small_cluster(), **kw)


@pytest.mark.parametrize("build, name, value", [
    _knob("UrsaConfig", UrsaConfig, "scheduling_interval", 0.25),
    _knob("UrsaConfig", UrsaConfig, "ept_factor", 1.2),
    _knob("UrsaConfig", UrsaConfig, "jm_creation_delay", 0.05),
    _knob("UrsaConfig", UrsaConfig, "starvation_timeout", 120.0),
    _knob("UrsaConfig", UrsaConfig, "worker", None),
    _knob("Worker", lambda **kw: Worker(small_cluster(), 0, EarliestJobFirst(), **kw),
          "config", None),
    _knob("UrsaPlacement", UrsaPlacement, "stage_bonus", 1e6),
    _knob("UrsaPlacement", UrsaPlacement, "ept", 0.3),
    _knob("SmallestRemainingJobFirst", SmallestRemainingJobFirst, "bonus_cap", 200.0),
    _knob("AdmissionController",
          lambda **kw: AdmissionController(1e3, EarliestJobFirst(), **kw),
          "starvation_timeout", 120.0),
    _knob("YarnConfig", YarnConfig, "heartbeat_interval", 1.0),
    _knob("YarnConfig", YarnConfig, "app_startup_delay", 0.5),
    _knob("ExecutorConfig", ExecutorConfig, "max_containers", None),
    _knob("ExecutorConfig", ExecutorConfig, "dynamic_allocation", True),
    _knob("spark_config", spark_config, "dynamic_allocation", True),
    _knob("tez_config", tez_config, "dynamic_allocation", True),
    _knob("JobManager", lambda **kw: JobManager(None, None, None, None, **kw),
          "reserve_task_memory", True),
    _knob("JobManager", lambda **kw: JobManager(None, None, None, None, **kw),
          "reserve_cpu_cores", True),
    # the JP is the JM's base class, so the JM refuses the JP's old keyword
    _knob("JobProcess", lambda **kw: JobManager(None, None, None, None, **kw),
          "machine", None),
    _knob("SharedProcessor", lambda **kw: SharedProcessor(Simulation(), 1, 1.0, **kw),
          "per_task_cap", 1.0),
    _knob("MaxMinFabric", lambda **kw: MaxMinFabric(Simulation(), 2, 100.0, **kw),
          "uplink_mbps", 100.0),
    _knob("MetadataStore", MetadataStore, "mb_per_element", 1e-4),
    _knob("estimate_payload_mb", lambda **kw: estimate_payload_mb([1], **kw),
          "mb_per_element", 1e-4),
    _knob("build_system", _ursa_build, "ursa_config", None),
    _knob("build_system", _ursa_build, "policy_weight", 0.05),
    _knob("run_one_system",
          lambda **kw: run_one_system("ursa-ejf", None, SCALES["tiny"], **kw),
          "overrides", None),
])
def test_removed_knob(build, name, value):
    """Each value the paper fixes is a module constant, not a setting: the
    old keyword, even at its old default, fails instead of being ignored."""
    with pytest.raises(TypeError, match=name):
        build(**{name: value})


@pytest.mark.parametrize("module, name", [
    ("repro.scheduler", "WorkerConfig"),
    ("repro.scheduler.worker", "WorkerConfig"),
    ("repro.experiments", "run_experiment"),
    ("repro.experiments.common", "run_experiment"),
    ("repro.experiments.registry", "EXPERIMENTS"),
    ("repro.simcore", "EventHandle"),
    ("repro.simcore.engine", "EventHandle"),
    ("repro.simcore", "ServiceRequest"),
    ("repro.simcore.resources", "ServiceRequest"),
    ("repro.simcore", "Transfer"),
    ("repro.perf", "CacheStats"),
], ids=lambda p: p)
def test_removed_import(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_placement_keeps_only_ablation_switches():
    """UrsaPlacement's settable values are the Fig. 7 and §5.2 switches,
    and no attribute picks a scoring path by cluster width."""
    assert list(inspect.signature(UrsaPlacement).parameters) == [
        "stage_aware", "ignore_network"]
    assert not hasattr(UrsaPlacement, "broadcast_min_workers")
