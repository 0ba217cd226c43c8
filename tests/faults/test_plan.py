"""FaultPlan / RetryPolicy construction, seeding, and validation."""

import doctest
import pickle

import pytest

import repro.faults.plan as plan_mod
from repro.faults import (
    FaultPlan,
    GrantTimeout,
    ResourceSlowdown,
    RetryPolicy,
    WorkerBlackout,
    WorkerCrash,
)


def test_module_doctests_pass():
    res = doctest.testmod(plan_mod)
    assert res.attempted > 0
    assert res.failed == 0


def test_empty_plan_is_falsy_and_valid():
    plan = FaultPlan()
    assert not plan
    plan.validate(num_workers=1)


def test_seeded_is_deterministic_and_picklable():
    kw = dict(seed=11, num_workers=8, window=(1.0, 20.0), crashes=2,
              blackouts=1, slowdowns=2, timeouts=1)
    a, b = FaultPlan.seeded(**kw), FaultPlan.seeded(**kw)
    assert a == b
    assert pickle.loads(pickle.dumps(a)) == a
    assert len(a.events) == 6
    times = [ev.at for ev in a.events]
    assert times == sorted(times)
    assert all(1.0 <= t <= 20.0 for t in times)


def test_seeded_crash_targets_are_distinct():
    plan = FaultPlan.seeded(seed=5, num_workers=6, window=(1.0, 5.0),
                            crashes=3, blackouts=2)
    down = [ev.worker for ev in plan.events
            if isinstance(ev, (WorkerCrash, WorkerBlackout))]
    assert len(down) == len(set(down)) == 5


def test_seeded_rejects_killing_every_worker():
    with pytest.raises(ValueError):
        FaultPlan.seeded(seed=0, num_workers=2, window=(1.0, 5.0),
                         crashes=1, blackouts=1)


@pytest.mark.parametrize("arg, overrides", [
    ("window", {"window": (1.0, float("inf"))}),      # used to yield WorkerCrash(at=inf)
    ("window", {"window": (float("nan"), 5.0)}),
    ("window", {"window": (5.0, 1.0)}),
    ("window", {"window": (0.0, 5.0)}),
    ("timeouts", {"timeouts": -2}),                    # used to mean 0
    ("crashes", {"crashes": -1}),                      # used to die inside numpy
    ("slowdowns", {"slowdowns": 1.5}),                 # used to die with a TypeError
    ("blackouts", {"blackouts": True}),
    ("num_workers", {"num_workers": 0}),
    ("seed", {"seed": -1}),
    ("blackout_duration", {"blackouts": 1, "blackout_duration": float("inf")}),
    ("slowdown_factor", {"slowdown_factor": float("nan")}),
    ("slowdown_duration", {"slowdown_duration": 0.0}),
])
def test_seeded_rejects_bad_arguments_by_name(arg, overrides):
    kw = {**dict(seed=0, num_workers=4, window=(1.0, 5.0), crashes=1), **overrides}
    with pytest.raises(ValueError, match=rf"^{arg} must be"):
        FaultPlan.seeded(**kw)


# each entry builds its plan inside the test: specs check their own fields
# at construction, so most of these raise before validate() is reached
BAD_PLANS = [
    lambda: FaultPlan((WorkerCrash(at=1.0, worker=9),)),        # out of range
    lambda: FaultPlan((WorkerCrash(at=0.0, worker=0),)),        # t must be > 0
    lambda: FaultPlan((WorkerBlackout(at=1.0, worker=0, duration=0.0),)),
    lambda: FaultPlan((ResourceSlowdown(at=1.0, worker=0, resource="gpu",
                                        factor=0.5, duration=1.0),)),
    lambda: FaultPlan((ResourceSlowdown(at=1.0, worker=0, resource="cpu",
                                        factor=0.0, duration=1.0),)),
    lambda: FaultPlan((WorkerCrash(at=1.0, worker=0),
                       WorkerCrash(at=2.0, worker=1))),         # kills them all
]


@pytest.mark.parametrize("bad", BAD_PLANS, ids=[f"bad{i}" for i in range(len(BAD_PLANS))])
def test_validate_rejects_bad_plans(bad):
    with pytest.raises(ValueError):
        bad().validate(num_workers=2)


def test_validate_accepts_mixed_plan():
    FaultPlan((
        WorkerCrash(at=1.0, worker=0),
        WorkerBlackout(at=2.0, worker=1, duration=3.0),
        ResourceSlowdown(at=3.0, worker=2, resource="disk", factor=0.25, duration=2.0),
        GrantTimeout(at=4.0, worker=3),
    )).validate(num_workers=4)


def test_retry_policy_backoff_sequence():
    r = RetryPolicy(max_attempts=3, backoff_base=0.5, backoff_factor=2.0)
    assert r.delay(0) == 0.0
    assert [r.delay(i) for i in (1, 2, 3)] == [0.5, 1.0, 2.0]


NAN = float("nan")


@pytest.mark.parametrize("field, build", [
    ("WorkerCrash.at", lambda: WorkerCrash(at=0.0, worker=0)),
    ("WorkerCrash.at", lambda: WorkerCrash(at=NAN, worker=0)),
    ("WorkerBlackout.at", lambda: WorkerBlackout(at=-1.0, worker=0, duration=1.0)),
    ("WorkerBlackout.duration", lambda: WorkerBlackout(at=1.0, worker=0, duration=0.0)),
    ("WorkerBlackout.duration", lambda: WorkerBlackout(at=1.0, worker=0, duration=NAN)),
    ("ResourceSlowdown.at", lambda: ResourceSlowdown(
        at=0.0, worker=0, resource="cpu", factor=0.5, duration=1.0)),
    ("ResourceSlowdown.resource", lambda: ResourceSlowdown(
        at=1.0, worker=0, resource="gpu", factor=0.5, duration=1.0)),
    ("ResourceSlowdown.factor", lambda: ResourceSlowdown(
        at=1.0, worker=0, resource="cpu", factor=0.0, duration=1.0)),
    ("ResourceSlowdown.factor", lambda: ResourceSlowdown(
        at=1.0, worker=0, resource="cpu", factor=NAN, duration=1.0)),
    ("ResourceSlowdown.duration", lambda: ResourceSlowdown(
        at=1.0, worker=0, resource="disk", factor=0.5, duration=-2.0)),
    ("GrantTimeout.at", lambda: GrantTimeout(at=0.0, worker=0)),
    ("GrantTimeout.delay", lambda: GrantTimeout(at=1.0, worker=0, delay=-0.5)),
    ("RetryPolicy.max_attempts", lambda: RetryPolicy(max_attempts=-1)),
    ("RetryPolicy.backoff_base", lambda: RetryPolicy(backoff_base=-0.1)),
    ("RetryPolicy.backoff_base", lambda: RetryPolicy(backoff_base=NAN)),
    ("RetryPolicy.backoff_factor", lambda: RetryPolicy(backoff_factor=0.5)),
    ("RetryPolicy.backoff_factor", lambda: RetryPolicy(backoff_factor=NAN)),
])
def test_bad_spec_fails_at_construction_naming_the_field(field, build):
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        build()


def test_validate_keeps_only_the_worker_checks():
    # fields are checked at construction; validate() needs the worker count
    plan = FaultPlan((WorkerCrash(at=1.0, worker=3),))
    plan.validate(num_workers=4)
    with pytest.raises(ValueError, match="worker 3 of 3"):
        plan.validate(num_workers=3)
    # a zero-attempt budget is valid: the first charged restart fails the job
    assert RetryPolicy(max_attempts=0).max_attempts == 0
