"""Every public config checks each field against its declared rule when it
is built: the refused values come from the rule's data, and so do the
accepted ones."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.executor import ExecutorConfig
from repro.baselines.yarn import YarnConfig
from repro.cluster.spec import ClusterSpec, MachineSpec
from repro.experiments.common import SCALES
from repro.faults.plan import (
    GrantTimeout, ResourceSlowdown, RetryPolicy, WorkerBlackout, WorkerCrash,
)
from repro.rules import POS_INT, UNIT, at_least, ruled, ruled_dataclass
from repro.scheduler.ursa import UrsaConfig
from repro.service.arrivals import BurstyArrivals, DiurnalArrivals, PoissonArrivals
from repro.service.autoscaler import AutoscalerConfig
from repro.service.driver import ServiceConfig
from repro.workloads.spec import JobSpec, StageSpec

from .rule_strategies import closed_ends, config_strategy, refused

NAN, INF = float("nan"), float("inf")
_STAGE = StageSpec(parallelism=2, source_mb=1.0)

#: one valid instance of every public config
BASES = [
    MachineSpec(), ClusterSpec(), UrsaConfig(), YarnConfig(), ExecutorConfig(),
    ServiceConfig(horizon=10.0, warmup=1.0, drain_grace=1.0), AutoscalerConfig(),
    RetryPolicy(), WorkerCrash(at=1.0, worker=0),
    WorkerBlackout(at=1.0, worker=0, duration=1.0),
    ResourceSlowdown(at=1.0, worker=0, resource="cpu", factor=0.5, duration=1.0),
    GrantTimeout(at=1.0, worker=0), _STAGE, JobSpec("j", [_STAGE], 1.0), SCALES["tiny"],
    PoissonArrivals(2.0), DiurnalArrivals(2.0), BurstyArrivals(2.0),
]
CONFIGS = [type(base) for base in BASES]

FIELD_CASES = [
    pytest.param(base, f.name, id=f"{type(base).__name__}.{f.name}")
    for base in BASES for f in fields(base)
]


def _rule(cls, name):
    return dict(cls._field_rules)[name]


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
def test_every_field_declares_its_rule(cls):
    assert [name for name, _ in cls._field_rules] == [f.name for f in fields(cls)]
    assert all("rule" in f.metadata for f in fields(cls))


@pytest.mark.parametrize("base, name", FIELD_CASES)
def test_each_refused_value_fails_at_construction_naming_the_field(base, name):
    cls = type(base)
    for value in refused(_rule(cls, name)):
        with pytest.raises(ValueError, match=rf"^{cls.__name__}\.{name} must be "):
            replace(base, **{name: value})


@pytest.mark.parametrize("base, name", FIELD_CASES)
def test_closed_ends_are_accepted(base, name):
    for end in closed_ends(_rule(type(base), name)):
        assert getattr(replace(base, **{name: end}), name) == end


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_accepted_values_construct_and_survive_replace(cls, data):
    config = data.draw(config_strategy(cls))
    assert replace(config) == config


@pytest.mark.parametrize("build, prefix", [
    (lambda: WorkerCrash(at=1.0, worker=0.5), "WorkerCrash.worker"),
    (lambda: StageSpec(parallelism=2.5), "StageSpec.parallelism"),
    (lambda: GrantTimeout(at=1.0, worker=0, delay=INF), "GrantTimeout.delay"),
    (lambda: JobSpec("j", [_STAGE], 1.0, memory_accuracy=NAN), "JobSpec.memory_accuracy"),
    (lambda: ServiceConfig(10.0, 1.0, 1.0, queue_limit=NAN), "ServiceConfig.queue_limit"),
    (lambda: ServiceConfig(10.0, 1.0, 1.0, queue_limit=2.5), "ServiceConfig.queue_limit"),
    (lambda: AutoscalerConfig(up_queue=NAN), "AutoscalerConfig.up_queue"),
    (lambda: UrsaConfig(stage_aware="no"), "UrsaConfig.stage_aware"),
    (lambda: JobSpec("j", [_STAGE], -1), "JobSpec.requested_memory_mb"),
    (lambda: MachineSpec(cores=2.5), "MachineSpec.cores"),
    (lambda: MachineSpec(disks=1.5), "MachineSpec.disks"),
    (lambda: ClusterSpec(num_machines=2.5), "ClusterSpec.num_machines"),
    (lambda: ClusterSpec(num_machines=NAN), "ClusterSpec.num_machines"),
    (lambda: ClusterSpec(num_machines=True), "ClusterSpec.num_machines"),
    (lambda: RetryPolicy(backoff_base=INF), "RetryPolicy.backoff_base"),
    (lambda: RetryPolicy(max_attempts=2.5), "RetryPolicy.max_attempts"),
    (lambda: AutoscalerConfig(min_workers=NAN), "AutoscalerConfig.min_workers"),
    (lambda: AutoscalerConfig(min_workers=1.5), "AutoscalerConfig.min_workers"),
    (lambda: AutoscalerConfig(max_workers=NAN), "AutoscalerConfig.max_workers"),
    (lambda: AutoscalerConfig(initial_workers=NAN), "AutoscalerConfig.initial_workers"),
    (lambda: AutoscalerConfig(down_stable=NAN), "AutoscalerConfig.down_stable"),
    (lambda: WorkerCrash(at=INF, worker=0), "WorkerCrash.at"),
    (lambda: WorkerBlackout(at=1.0, worker=0, duration=INF), "WorkerBlackout.duration"),
    (lambda: ResourceSlowdown(at=1.0, worker=0, resource="cpu", factor=INF, duration=1.0),
     "ResourceSlowdown.factor"),
    (lambda: StageSpec(parallelism=2, expand=NAN), "StageSpec.expand"),
    (lambda: StageSpec(parallelism=2, skew_sigma=NAN), "StageSpec.skew_sigma"),
    (lambda: StageSpec(parallelism=2, m2i=NAN), "StageSpec.m2i"),
    (lambda: StageSpec(parallelism=2, source_mb=INF), "StageSpec.source_mb"),
    (lambda: PoissonArrivals(2.0, n_tenants=2.5), "PoissonArrivals.n_tenants"),
])
def test_inputs_that_failed_mid_run_or_changed_the_run_are_refused(build, prefix):
    with pytest.raises(ValueError, match=rf"^{prefix} must be "):
        build()


def test_cross_field_checks_name_the_field():
    with pytest.raises(ValueError, match=r"^ServiceConfig\.warmup must be < horizon"):
        ServiceConfig(horizon=10.0, warmup=10.0, drain_grace=0.0)
    with pytest.raises(ValueError, match=r"^AutoscalerConfig\.down_util must be < up_util"):
        AutoscalerConfig(down_util=0.9, up_util=0.8)


def test_integer_fields_take_numpy_integers_but_not_integral_floats():
    assert MachineSpec(cores=np.int64(4)).cores == 4
    assert ClusterSpec(num_machines=np.int32(3)).num_machines == 3
    with pytest.raises(ValueError, match=r"^MachineSpec\.cores must be a positive integer"):
        MachineSpec(cores=4.0)


def test_a_field_without_a_rule_is_refused_when_the_class_is_defined():
    with pytest.raises(TypeError, match=r"Knobs\.extra declares no rule"):
        @ruled_dataclass(frozen=True)
        class Knobs:
            workers: int = ruled(POS_INT, 1)
            extra: float = 0.0


def test_cross_field_check_runs_after_the_field_rules():
    @ruled_dataclass()
    class Window:
        lo: float = ruled(UNIT, 0.0)
        hi: float = ruled(at_least(1.0), 1.0)

        def __post_init__(self):
            assert self.lo < self.hi  # reached only with both fields checked

    with pytest.raises(ValueError, match=r"^Window\.lo must be in \[0, 1\], got nan"):
        Window(lo=NAN)
