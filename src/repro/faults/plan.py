"""Fault plans: declarative, seed-derivable schedules of cluster faults.

A :class:`FaultPlan` is an immutable tuple of fault specs, each naming an
absolute simulation time and a target worker.  Plans are plain frozen
dataclasses — hashable, picklable, and ``repr``-stable — so they ride
through the parallel harness and its on-disk result cache unchanged.

Doctest (also exercised by the CI docs job)::

    >>> plan = FaultPlan.seeded(seed=7, num_workers=4, window=(2.0, 10.0),
    ...                         crashes=1, blackouts=1)
    >>> plan == FaultPlan.seeded(seed=7, num_workers=4, window=(2.0, 10.0),
    ...                          crashes=1, blackouts=1)
    True
    >>> bool(FaultPlan())
    False
    >>> times = [ev.at for ev in plan.events]
    >>> times == sorted(times) and len(plan.events) == 2
    True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union

from ..rules import NONNEG, NONNEG_INT, POS, POS_INT, at_least, one_of
from ..rules import require, ruled, ruled_dataclass
from ..simcore.rng import derive_rng

__all__ = [
    "WorkerCrash",
    "WorkerBlackout",
    "ResourceSlowdown",
    "GrantTimeout",
    "RetryPolicy",
    "FaultPlan",
]

#: resources a slowdown can target (matches ResourceType values)
_SLOWDOWN_RESOURCES = ("cpu", "disk", "network")


@ruled_dataclass(frozen=True)
class WorkerCrash:
    """Permanent loss of one worker at time ``at``: its queues are drained,
    in-flight grants aborted, shard outputs it held invalidated, and the
    admission controller resized down for good."""

    at: float = ruled(POS)
    worker: int = ruled(NONNEG_INT)


@ruled_dataclass(frozen=True)
class WorkerBlackout:
    """Transient loss: the worker crashes at ``at`` and rejoins at
    ``at + duration`` with empty queues and freshly seeded rate monitors
    (so ``APT_r(w)`` is rebuilt from the nominal rates)."""

    at: float = ruled(POS)
    worker: int = ruled(NONNEG_INT)
    duration: float = ruled(POS)


@ruled_dataclass(frozen=True)
class ResourceSlowdown:
    """Straggler injection: scale one fluid resource's unit rate on one
    worker by ``factor`` for ``duration`` seconds (factor 0.25 = 4x slower).
    ``resource`` is ``"cpu"``, ``"disk"`` or ``"network"`` (receiver-side
    downlink; requires the default ``receiver`` fabric)."""

    at: float = ruled(POS)
    worker: int = ruled(NONNEG_INT)
    resource: str = ruled(one_of(*_SLOWDOWN_RESOURCES))
    factor: float = ruled(POS)
    duration: float = ruled(POS)


@ruled_dataclass(frozen=True)
class GrantTimeout:
    """The grant of one running monotask on ``worker`` times out at ``at``:
    the monotask is aborted and re-enqueued after ``delay`` seconds, charged
    against its task's retry budget.  The victim is picked deterministically
    (lowest job id, then lowest monotask id)."""

    at: float = ruled(POS)
    worker: int = ruled(NONNEG_INT)
    delay: float = ruled(NONNEG, 0.5)


FaultSpec = Union[WorkerCrash, WorkerBlackout, ResourceSlowdown, GrantTimeout]


@ruled_dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for fault-induced task re-execution.

    Each *charged* restart of a task (it had started or finished work that
    was lost) bumps a per-task attempt counter; when a counter exceeds
    ``max_attempts`` the whole job fails gracefully — its remaining work is
    torn down, ``finish_time`` is stamped (so metrics still aggregate), and
    partial results (``tasks_done``) are retained for accounting.
    Restarts of tasks that were merely READY are free: no work was lost.
    """

    # 0 is a budget too: the first charged restart fails the job
    max_attempts: int = ruled(NONNEG_INT, 3)
    backoff_base: float = ruled(NONNEG, 0.5)
    backoff_factor: float = ruled(at_least(1.0), 2.0)

    def delay(self, attempt: int) -> float:
        """Re-ready delay before a task's ``attempt``-th charged retry."""
        if attempt <= 0:
            return 0.0
        return self.backoff_base * self.backoff_factor ** (attempt - 1)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault events.

    Empty plans are falsy and inject nothing — ``UrsaConfig(faults=
    FaultPlan())`` is bit-identical to ``faults=None`` (pinned by
    ``tests/faults``).
    """

    events: Tuple[FaultSpec, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __bool__(self) -> bool:
        return bool(self.events)

    def validate(self, num_workers: int) -> None:
        """Raise ``ValueError`` on out-of-range workers or plans that
        permanently kill every worker.  Each spec checks its own times,
        durations and targets when it is constructed."""
        dead = set()
        for ev in self.events:
            if not 0 <= ev.worker < num_workers:
                raise ValueError(f"fault targets worker {ev.worker} of {num_workers}")
            if isinstance(ev, WorkerCrash):
                dead.add(ev.worker)
        if len(dead) >= num_workers:
            raise ValueError("plan permanently crashes every worker")

    @staticmethod
    def seeded(
        seed: int,
        num_workers: int,
        window: tuple[float, float],
        crashes: int = 1,
        blackouts: int = 0,
        slowdowns: int = 0,
        timeouts: int = 0,
        blackout_duration: float = 5.0,
        slowdown_factor: float = 0.25,
        slowdown_duration: float = 5.0,
    ) -> "FaultPlan":
        """Derive a reproducible plan from ``seed``.

        Fault times are drawn uniformly from ``window`` and targets from the
        worker set via :func:`repro.simcore.rng.derive_rng`, so the same
        arguments always yield the same plan on every platform.  Crash /
        blackout targets are sampled without replacement (a worker dies at
        most once) and at least one worker is always left untouched by
        permanent crashes.
        """
        require(NONNEG_INT, seed=seed, crashes=crashes, blackouts=blackouts,
                slowdowns=slowdowns, timeouts=timeouts)
        require(POS_INT, num_workers=num_workers)
        require(POS, blackout_duration=blackout_duration, slowdown_factor=slowdown_factor,
                slowdown_duration=slowdown_duration)
        lo, hi = window
        if not (POS.ok(lo) and POS.ok(hi) and lo < hi):
            raise ValueError(f"window must be finite with 0 < lo < hi, got {window!r}")
        n_down = crashes + blackouts
        if n_down >= num_workers:
            raise ValueError(
                f"{n_down} crash/blackout targets need < {num_workers} workers"
            )
        rng = derive_rng(seed, "fault_plan", num_workers, crashes, blackouts,
                         slowdowns, timeouts)
        events: list[FaultSpec] = []
        down = (
            [int(w) for w in rng.choice(num_workers, size=n_down, replace=False)]
            if n_down else []
        )
        for w in down[:crashes]:
            events.append(WorkerCrash(at=_t(rng, lo, hi), worker=w))
        for w in down[crashes:]:
            events.append(
                WorkerBlackout(at=_t(rng, lo, hi), worker=w,
                               duration=blackout_duration)
            )
        for _ in range(slowdowns):
            events.append(
                ResourceSlowdown(
                    at=_t(rng, lo, hi),
                    worker=int(rng.integers(num_workers)),
                    resource=_SLOWDOWN_RESOURCES[int(rng.integers(3))],
                    factor=slowdown_factor,
                    duration=slowdown_duration,
                )
            )
        for _ in range(timeouts):
            events.append(
                GrantTimeout(at=_t(rng, lo, hi), worker=int(rng.integers(num_workers)))
            )
        events.sort(key=lambda ev: (ev.at, ev.worker, type(ev).__name__))
        plan = FaultPlan(tuple(events))
        plan.validate(num_workers)
        return plan


def _t(rng, lo: float, hi: float) -> float:
    return float(lo + (hi - lo) * rng.random())
